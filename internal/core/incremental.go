package core

import (
	"context"
	"fmt"
	"slices"

	"repro/dterr"
	"repro/internal/datagen"
	"repro/internal/dedup"
	"repro/internal/ingest"
	"repro/internal/record"
	"repro/internal/schema"
	"repro/internal/store"
)

// Incremental apply: the one way data enters the pipeline, driven by the
// batch Run and afterwards by the live ingestion subsystem (internal/live).
// Fragments go straight through the parser into the sharded stores (index
// maintenance rides on Collection.Insert). Records are integrated,
// translated and cleaned at once into members of the fused view, which is
// re-consolidated on the next refresh or fused query.

// applyWindow is how many fragments ApplyFragments parses before it stores
// them. A window's parsed documents are all a coordinator over remote
// shards holds of a load at once. At 500, a shard's share of a window fits
// one insert frame (store.FrameChunk) at the default 4 shards, so a window
// is one call per store and shard, while the coordinator holds a quarter
// of the default 2 000-fragment load.
const applyWindow = 500

// ApplyFragments parses frags with a pool of workers (0 = one per
// schedulable CPU) and inserts the results into both text namespaces, one
// window of applyWindow fragments at a time: a window is parsed, then
// inserted into each store, before the next is parsed. Each shard sees its
// documents in fragment order, so every document gets the id serial
// inserts would. It returns the instance and entity counts inserted. Safe
// for concurrent use with queries; calls are internally serialized per
// store shard. Cancelling ctx before the first window's insert stops the
// parse workers at their next fragment and inserts nothing; a cancellation
// after it no longer stops the parse, so on local stores, which ignore ctx,
// the whole batch lands.
func (t *Tamer) ApplyFragments(ctx context.Context, frags []datagen.Fragment, workers int) (instances, entities int, err error) {
	if len(frags) == 0 {
		return 0, 0, nil
	}
	// Once per store set, not per batch: on remote shards every ensure is a
	// wire call per shard and index.
	if !t.storesIndexed.Load() {
		if err := t.indexStores(ctx); err != nil {
			return 0, 0, err
		}
		t.storesIndexed.Store(true)
	}
	// Bump the generation once, after the last insert — or after a failed
	// one, which may have stored part of its window — so an HTTP response
	// cached during the batch is keyed to the pre-batch generation and the
	// first query after this return recomputes.
	inserted := false
	defer func() {
		if inserted {
			t.dataGen.Add(1)
		}
	}()
	results := make([]parsed, min(len(frags), applyWindow))
	var instanceDocs, entityDocs []*store.Doc
	parseCtx := ctx
	for lo := 0; lo < len(frags); lo += applyWindow {
		window := frags[lo:min(lo+applyWindow, len(frags))]
		results = results[:len(window)]
		if err := t.parseFragments(parseCtx, window, results, workers); err != nil {
			return 0, 0, err
		}
		instanceDocs, entityDocs = instanceDocs[:0], entityDocs[:0]
		for _, r := range results {
			instanceDocs = append(instanceDocs, &r.docs[0])
			for k := range r.docs[1:] {
				entityDocs = append(entityDocs, &r.docs[1+k])
			}
		}
		inserted = true
		// The batch's first insert has begun: from here on a cancellation
		// must not leave a local batch half stored (the live ingester's WAL
		// replay relies on all or nothing), so the parse ignores it.
		parseCtx = context.WithoutCancel(ctx)
		if err := t.Instances.InsertManyCtx(ctx, instanceDocs); err != nil {
			return 0, 0, err
		}
		if err := t.Entities.InsertManyCtx(ctx, entityDocs); err != nil {
			return 0, 0, err
		}
		instances += len(instanceDocs)
		entities += len(entityDocs)
	}
	return instances, entities, nil
}

// ApplyRecords folds a batch of structured records from the named source
// into the pipeline: registers them (appending when the source already
// exists), integrates any new attributes into the global schema with the
// expert pool resolving uncertain matches, and translates and cleans the
// records into pending members of the fused view. Consolidation itself is
// deferred to RefreshFused.
func (t *Tamer) ApplyRecords(ctx context.Context, source string, recs []*record.Record) (int, error) {
	if source == "" {
		return 0, dterr.New(dterr.CodeInvalidArgument, "core: apply records: empty source name")
	}
	if len(recs) == 0 {
		return 0, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return 0, dterr.FromContext(err)
	}
	// Match only the batch's attributes against the global schema; the
	// source's earlier records are already integrated. Integration runs
	// before registration so a failed batch leaves no records in the
	// registry to pile up again on every crash-recovery replay. (Schema
	// attributes integrated before the failure point do persist — global
	// attributes are additive and harmless to retry against.)
	batch := &ingest.Source{Name: source, Records: recs}
	rep := t.Matcher.MatchSource(schema.FromSource(batch), t.Global)
	review, err := t.Matcher.Integrate(rep, t.Global)
	if err != nil {
		return 0, fmt.Errorf("core: integrating %s: %w", source, err)
	}
	if err := t.resolveWithExperts(ctx, source, review); err != nil {
		return 0, err
	}
	if existing, ok := t.Registry.Get(source); ok {
		existing.Append(recs)
	} else {
		t.Registry.Register(ingest.NewSource(source, recs))
	}
	t.matchReports = append(t.matchReports, rep)
	// A long-lived live pipeline sees one report per record batch; keep the
	// first, Fig. 2's, and the most recent window, so memory stays bounded.
	const maxMatchReports = 1024
	if len(t.matchReports) > maxMatchReports {
		t.matchReports = append(t.matchReports[:1:1], t.matchReports[len(t.matchReports)-maxMatchReports+1:]...)
	}
	for _, m := range t.Global.TranslateAll(recs) {
		t.Cleaner.Apply(m)
		t.addMemberLocked(source, m)
	}
	// Invalidate serve-tier caches immediately — fused queries refresh
	// lazily from the pending members, so results change as of this return,
	// not at the eventual RefreshFused. This path runs with or without the
	// live ingester (the batch Run included), which is what keeps a
	// conditional GET from revalidating a stale 304 after a write.
	t.dataGen.Add(1)
	return len(recs), nil
}

// addMemberLocked queues r, from source, as a pending member. Must hold t.mu.
func (t *Tamer) addMemberLocked(source string, r *record.Record) {
	pos, ok := t.arrivals[source]
	if !ok {
		pos = len(t.arrivals) << 32
	}
	t.pending = append(t.pending, member{rec: r, keys: fusedBlocker(r), pos: pos})
	t.arrivals[source] = pos + 1
}

// RefreshFused folds pending members into the fused view. It returns the
// number of pending members folded in; zero means the view was already
// current. A context cancelled before the refresh starts leaves the members
// pending for the next caller.
func (t *Tamer) RefreshFused(ctx context.Context) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return 0, dterr.FromContext(err)
	}
	n, _ := t.refreshFusedLocked()
	return n, nil
}

// refreshFusedLocked re-consolidates the pending members together with
// every cluster one of them shares a blocking key with, in position order.
// That is exact: whether two members match depends on the two alone, so no
// other cluster can gain or lose a member. Within the pool, only pairs with
// a pending member are scored: two members of one cluster start joined, and
// two members of different clusters were scored, and failed to match, when
// the later of them arrived. It returns how many pending members it folded
// in, and the pool's consolidation. Must hold t.mu.
func (t *Tamer) refreshFusedLocked() (int, dedup.Consolidation) {
	n := len(t.pending)
	if n == 0 {
		return 0, dedup.Consolidation{}
	}
	dirty := make(map[string]bool, n)
	for _, m := range t.pending {
		for _, k := range m.keys {
			dirty[k] = true
		}
	}
	pool := t.pending
	clusterAt := map[int]int{} // a pooled cluster member's position → its cluster
	clusters := make([]fusedCluster, 0, len(t.view.clusters)+n)
	for ci, c := range t.view.clusters {
		if c.sharesKey(dirty) {
			pool = append(pool, c.members...)
			for _, m := range c.members {
				clusterAt[m.pos] = ci
			}
		} else {
			clusters = append(clusters, c)
		}
	}
	slices.SortFunc(pool, byPosition)
	recs := make([]*record.Record, len(pool))
	keys := make([][]string, len(pool))
	prior := make([]int, len(pool))
	for i, m := range pool {
		recs[i], keys[i], prior[i] = m.rec, m.keys, -1
		if ci, ok := clusterAt[m.pos]; ok {
			prior[i] = ci
		}
	}
	deduper := dedup.Deduper{Blocker: fusedBlocker, Matcher: t.matcherLocked()}
	res := deduper.RunKeyed(recs, keys, prior)
	for _, c := range res.Clusters {
		members := make([]member, len(c.Members))
		for i, idx := range c.Members {
			members[i] = pool[idx]
		}
		clusters = append(clusters, fusedCluster{members: members, record: c.Record, show: c.Record.GetString("SHOW_NAME")})
	}
	// Install a whole new snapshot: readers holding the previous view keep
	// a consistent table, and the new view starts with cold (correct)
	// aggregate caches.
	t.view = newFusedView(clusters)
	t.pending = nil
	return n, res
}

// FusedDirty reports whether members are awaiting consolidation into the
// fused view.
func (t *Tamer) FusedDirty() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.pending) > 0
}

// fusedSnapshot returns the current fused-view snapshot, refreshing it
// first when members are pending. The snapshot is immutable — refreshes
// install a whole new view — so callers may query it without holding the
// lock, and its cached aggregates stay consistent with its records by
// construction.
func (t *Tamer) fusedSnapshot() *fusedView {
	t.mu.RLock()
	dirty := len(t.pending) > 0
	view := t.view
	t.mu.RUnlock()
	if !dirty {
		return view
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.refreshFusedLocked()
	return t.view
}

// FusedMembers returns the fused view's members, pending ones included, in
// position order: what RestoreFused takes back. Callers must not modify them.
func (t *Tamer) FusedMembers() []*record.Record {
	t.mu.RLock()
	defer t.mu.RUnlock()
	all := slices.Clone(t.pending)
	for _, c := range t.view.clusters {
		all = append(all, c.members...)
	}
	slices.SortFunc(all, byPosition)
	recs := make([]*record.Record, len(all))
	for i, m := range all {
		recs[i] = m.rec
	}
	return recs
}

// RestoreFused replaces the fused view's members with recs, as FusedMembers
// returned them (each Source names its source, as ApplyRecords stamps it):
// the recovery path after loading a checkpoint.
func (t *Tamer) RestoreFused(recs []*record.Record) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.view = newFusedView(nil)
	t.pending = nil
	clear(t.arrivals)
	for _, r := range recs {
		t.addMemberLocked(r.Source, r)
	}
	t.dataGen.Add(1)
}
