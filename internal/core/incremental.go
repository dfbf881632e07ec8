package core

import (
	"context"
	"fmt"

	"repro/dterr"
	"repro/internal/datagen"
	"repro/internal/ingest"
	"repro/internal/record"
	"repro/internal/schema"
	"repro/internal/store"
)

// Incremental apply: the hooks the live ingestion subsystem
// (internal/live) drives after the initial Run. New web-text fragments and
// structured records are folded into the running pipeline without a
// rebuild-from-scratch — fragments go straight through the parser into the
// sharded stores (index maintenance rides on Collection.Insert), records go
// through schema integration, translation, and cleaning immediately, and
// entity consolidation is deferred: new records invalidate the fused view,
// which is re-consolidated incrementally (existing fused records + pending
// ones, not every source record) on the next refresh or fused query.

// ApplyFragments parses frags with a pool of workers (0 = one per CPU) and
// inserts the results into both text namespaces. It returns the instance
// and entity counts inserted. Safe for concurrent use with queries; calls
// are internally serialized per store shard. Cancelling ctx stops the
// parse workers at their next fragment and inserts nothing.
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
	results, err := t.parseFragments(ctx, frags, workers)
	if err != nil {
		return 0, 0, err
	}
	for _, r := range results {
		entities += len(r.entities)
	}
	// Each store takes its documents as one batch, in fragment order, which
	// gives every document the id serial inserts would.
	instanceDocs := make([]*store.Doc, 0, len(results))
	entityDocs := make([]*store.Doc, 0, entities)
	for _, r := range results {
		instanceDocs = append(instanceDocs, r.instance)
		entityDocs = append(entityDocs, r.entities...)
	}
	if err := t.Instances.InsertManyCtx(ctx, instanceDocs); err != nil {
		return 0, 0, err
	}
	if err := t.Entities.InsertManyCtx(ctx, entityDocs); err != nil {
		return 0, 0, err
	}
	// Bump the generation only after every insert landed, so an HTTP
	// response cached during the batch is keyed to the pre-batch generation
	// and the first query after this return recomputes.
	t.dataGen.Add(1)
	return len(results), entities, nil
}

// ApplyRecords folds a batch of structured records from the named source
// into the pipeline: registers them (appending when the source already
// exists), integrates any new attributes into the global schema with the
// expert pool resolving uncertain matches, translates and cleans the
// records, and marks the fused view dirty. Consolidation itself is
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
	// A long-lived live pipeline sees one report per record batch; keep
	// only the most recent window so memory stays bounded.
	const maxMatchReports = 1024
	if len(t.matchReports) > maxMatchReports {
		t.matchReports = append(t.matchReports[:0:0], t.matchReports[len(t.matchReports)-maxMatchReports:]...)
	}
	translated := make([]*record.Record, len(recs))
	for i, r := range recs {
		translated[i] = t.Global.Translate(r)
	}
	t.Cleaner.ApplyAll(translated)
	t.pending = append(t.pending, translated...)
	t.fusedDirty = true
	// Invalidate serve-tier caches immediately — fused queries refresh
	// lazily from the dirty flag, so results change as of this return, not
	// at the eventual RefreshFused. This path runs with or without the
	// live ingester (batch-mode ApplyRecords included), which is what
	// keeps a conditional GET from revalidating a stale 304 after a write.
	t.dataGen.Add(1)
	return len(recs), nil
}

// RefreshFused folds pending incremental records into the fused view by
// consolidating them against the existing fused records (not the full
// source history). It returns the number of pending records folded in;
// zero means the view was already current. A context cancelled before the
// refresh starts leaves the view dirty for the next caller.
func (t *Tamer) RefreshFused(ctx context.Context) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return 0, dterr.FromContext(err)
	}
	return t.refreshFusedLocked(), nil
}

func (t *Tamer) refreshFusedLocked() int {
	if !t.fusedDirty {
		return 0
	}
	n := len(t.pending)
	// Only fused records sharing a blocking key with a pending record can
	// gain a new cluster member; everything else passes through untouched,
	// keeping refresh cost proportional to the affected blocks rather than
	// the whole fused view.
	dirtyKeys := make(map[string]bool, n)
	for _, r := range t.pending {
		for _, k := range fusedBlocker(r) {
			dirtyKeys[k] = true
		}
	}
	fused := t.view.records
	affected := make([]*record.Record, 0, 2*n)
	untouched := make([]*record.Record, 0, len(fused))
	for _, r := range fused {
		hit := false
		for _, k := range fusedBlocker(r) {
			if dirtyKeys[k] {
				hit = true
				break
			}
		}
		if hit {
			affected = append(affected, r)
		} else {
			untouched = append(untouched, r)
		}
	}
	affected = append(affected, t.pending...)
	merged := append(untouched, consolidate(affected, t.matcherLocked())...)
	// Install a whole new snapshot: readers holding the previous view keep
	// a consistent table, and the new view starts with cold (correct)
	// aggregate caches.
	t.view = newFusedView(merged)
	t.pending = nil
	t.fusedDirty = false
	return n
}

// FusedDirty reports whether incremental records are awaiting
// consolidation into the fused view.
func (t *Tamer) FusedDirty() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.fusedDirty
}

// fusedSnapshot returns the current fused-view snapshot, refreshing it
// first when incremental records are pending. The snapshot is immutable —
// refreshes install a whole new view — so callers may query it without
// holding the lock, and its cached aggregates stay consistent with its
// records by construction.
func (t *Tamer) fusedSnapshot() *fusedView {
	t.mu.RLock()
	dirty := t.fusedDirty
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

// RestoreFused installs a previously consolidated fused view, the recovery
// path after loading a checkpoint. Pending incremental state is discarded.
func (t *Tamer) RestoreFused(recs []*record.Record) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.view = newFusedView(recs)
	t.pending = nil
	t.fusedDirty = false
	t.dataGen.Add(1)
}
