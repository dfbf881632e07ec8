package store

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/dterr"
)

// ShardBackend is the operation set the sharded router needs from one
// shard. A backend may be an in-process Collection (LocalShard) or a proxy
// to a shard hosted in another process (internal/cluster's RemoteShard);
// the router treats them uniformly, which is what lets one Sharded hold a
// mix of local and remote shards. Every method takes a context and may
// fail — for local shards the context is ignored and the error is always
// nil.
type ShardBackend interface {
	// NS returns the backend's namespace, which must match the router's.
	NS() string
	// Insert stores docs in order and returns their shard-local ids — the
	// ids one call per document would have assigned. A failed call may have
	// stored a leading part of the list.
	Insert(ctx context.Context, docs ...*Doc) ([]int64, error)
	// Update replaces the document under id, reporting whether it existed.
	Update(ctx context.Context, id int64, d *Doc) (bool, error)
	// Delete removes the document under id, reporting whether it existed.
	Delete(ctx context.Context, id int64) (bool, error)
	// Query answers q against the shard: a window of the matching
	// documents in the shard's order, their exact total and group counts,
	// or the plan.
	Query(ctx context.Context, q Query) (Result, error)
	// Stats returns the shard's storage statistics.
	Stats(ctx context.Context) (Stats, error)
	// CreateIndex ensures a secondary index named name over path.
	CreateIndex(ctx context.Context, name, path string, kind IndexKind) error
	// CreateTextIndex ensures an inverted text index over path.
	CreateTextIndex(ctx context.Context, path string) error
}

// LocalShard adapts an in-process *Collection to the ShardBackend
// interface. All methods ignore the context and never fail: the collection
// is memory-resident and its own lock provides the concurrency contract.
type LocalShard struct{ Coll *Collection }

// NS implements ShardBackend.
func (l LocalShard) NS() string { return l.Coll.NS() }

// Insert implements ShardBackend.
func (l LocalShard) Insert(_ context.Context, docs ...*Doc) ([]int64, error) {
	return l.Coll.InsertMany(docs), nil
}

// Update implements ShardBackend.
func (l LocalShard) Update(_ context.Context, id int64, d *Doc) (bool, error) {
	return l.Coll.Update(id, d), nil
}

// Delete implements ShardBackend.
func (l LocalShard) Delete(_ context.Context, id int64) (bool, error) {
	return l.Coll.Delete(id), nil
}

// Query implements ShardBackend.
func (l LocalShard) Query(_ context.Context, q Query) (Result, error) {
	return l.Coll.Query(q), nil
}

// Stats implements ShardBackend.
func (l LocalShard) Stats(_ context.Context) (Stats, error) { return l.Coll.Stats(), nil }

// CreateIndex implements ShardBackend.
func (l LocalShard) CreateIndex(_ context.Context, name, path string, kind IndexKind) error {
	l.Coll.EnsureIndex(name, path, kind)
	return nil
}

// CreateTextIndex implements ShardBackend.
func (l LocalShard) CreateTextIndex(_ context.Context, path string) error {
	l.Coll.EnsureTextIndex(path)
	return nil
}

// Sharded is a collection distributed over N shards by a hash of the shard
// key path. Each shard is an independent backend — an in-process Collection
// or a remote proxy — as in the paper's distributed deployment; the router
// fans reads out to all shards concurrently and merges results in shard
// order, so a query pays for the slowest shard rather than the sum of all
// of them. Sharded is safe for concurrent use.
type Sharded struct {
	ns       string
	keyPath  string
	backends []ShardBackend
}

// NewSharded creates a sharded namespace with n in-process shards, hashing
// documents by the scalar value at keyPath (documents missing the key hash
// to shard 0).
func NewSharded(ns, keyPath string, n int, extentSize int64) *Sharded {
	if n < 1 {
		n = 1
	}
	backends := make([]ShardBackend, 0, n)
	for i := 0; i < n; i++ {
		backends = append(backends, LocalShard{Coll: newCollection(ns, extentSize)})
	}
	return &Sharded{ns: ns, keyPath: keyPath, backends: backends}
}

// NewShardedBackends assembles a router over pre-built shard backends —
// the cluster coordinator's entry point, where backends are remote proxies,
// and a restore's, where they are loaded snapshots. Every backend's
// namespace must equal ns.
func NewShardedBackends(ns, keyPath string, backends []ShardBackend) (*Sharded, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("store: sharded %q needs at least one backend", ns)
	}
	for i, b := range backends {
		if b.NS() != ns {
			return nil, fmt.Errorf("store: backend %d namespace %q does not match %q", i, b.NS(), ns)
		}
	}
	return &Sharded{ns: ns, keyPath: keyPath, backends: backends}, nil
}

// NS returns the sharded namespace.
func (s *Sharded) NS() string { return s.ns }

// NumShards reports the shard count.
func (s *Sharded) NumShards() int { return len(s.backends) }

// Backend returns the i'th shard backend.
func (s *Sharded) Backend(i int) ShardBackend { return s.backends[i] }

// Shard returns the i'th shard's in-process collection, for shard-local
// operations. It returns nil when the shard is remote — callers needing
// direct collection access (checkpoint write and restore) must handle
// that, typically by reporting the operation unavailable in cluster mode.
func (s *Sharded) Shard(i int) *Collection {
	if l, ok := s.backends[i].(LocalShard); ok {
		return l.Coll
	}
	return nil
}

// FNV-1a constants (hash/fnv), inlined so routing a document allocates
// nothing on the hot ingest path.
const (
	fnvOffset32 uint32 = 2166136261
	fnvPrime32  uint32 = 16777619
)

// fnv32a is the allocation-free FNV-1a hash of s, identical to writing s
// into a hash/fnv.New32a.
func fnv32a(s string) uint32 {
	h := fnvOffset32
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= fnvPrime32
	}
	return h
}

// shardFor routes a document by hashing its shard key.
func (s *Sharded) shardFor(d *Doc) int {
	key := d.PathString(s.keyPath)
	if key == "" {
		return 0
	}
	return int(fnv32a(key)) % len(s.backends)
}

// Insert routes doc to its shard and returns (shard, local id). Safe for
// concurrent use: the shard's own lock serializes the insert and routed
// inserts touch no router state. Remote-shard failures are not reportable
// through this signature; cluster callers use InsertCtx.
func (s *Sharded) Insert(d *Doc) (shard int, id int64) {
	shard, id, _ = s.InsertCtx(context.Background(), d)
	return shard, id
}

// InsertCtx routes doc to its shard and returns (shard, local id),
// propagating the context and any remote failure.
func (s *Sharded) InsertCtx(ctx context.Context, d *Doc) (shard int, id int64, err error) {
	shard = s.shardFor(d)
	ids, err := s.backends[shard].Insert(ctx, d)
	if err != nil {
		return shard, 0, err
	}
	return shard, ids[0], nil
}

// InsertManyCtx routes docs to their shards and hands each shard its share
// in one backend call, shard by shard. A shard sees its documents in the
// order they have in docs, so every document gets the id InsertCtx calls in
// that order would have given it. An error stops the load: shards before
// the failing one hold their share, later ones none of theirs.
func (s *Sharded) InsertManyCtx(ctx context.Context, docs []*Doc) error {
	if len(s.backends) == 1 {
		_, err := s.backends[0].Insert(ctx, docs...)
		return err
	}
	// Routing twice — once to size the shares, once to fill them — carves
	// them from one array and keeps no per-document routing table.
	sizes := make([]int, len(s.backends))
	for _, d := range docs {
		sizes[s.shardFor(d)]++
	}
	backing := make([]*Doc, len(docs))
	shares := make([][]*Doc, len(s.backends))
	for i, n := range sizes {
		shares[i], backing = backing[:0:n], backing[n:]
	}
	for _, d := range docs {
		i := s.shardFor(d)
		shares[i] = append(shares[i], d)
	}
	for i, share := range shares {
		if len(share) == 0 {
			continue
		}
		if _, err := s.backends[i].Insert(ctx, share...); err != nil {
			return err
		}
	}
	return nil
}

// EnsureIndex creates the index on every shard.
func (s *Sharded) EnsureIndex(name, path string, kind IndexKind) {
	_ = s.EnsureIndexCtx(context.Background(), name, path, kind)
}

// EnsureIndexCtx creates the index on every shard, propagating failures.
func (s *Sharded) EnsureIndexCtx(ctx context.Context, name, path string, kind IndexKind) error {
	for _, b := range s.backends {
		// Local shards build synchronously and ignore ctx; checking between
		// shards is what lets a cancelled restore stop mid-rebuild.
		if err := ctx.Err(); err != nil {
			return dterr.FromContext(err)
		}
		if err := b.CreateIndex(ctx, name, path, kind); err != nil {
			return err
		}
	}
	return nil
}

// EnsureTextIndex creates the inverted text index over path on every shard.
func (s *Sharded) EnsureTextIndex(path string) {
	_ = s.EnsureTextIndexCtx(context.Background(), path)
}

// EnsureTextIndexCtx creates the inverted text index over path on every
// shard, propagating failures.
func (s *Sharded) EnsureTextIndexCtx(ctx context.Context, path string) error {
	for _, b := range s.backends {
		if err := ctx.Err(); err != nil {
			return dterr.FromContext(err)
		}
		if err := b.CreateTextIndex(ctx, path); err != nil {
			return err
		}
	}
	return nil
}

// fanOut runs fn once per shard, concurrently when parallelism can
// actually overlap the work (more than one shard and more than one
// schedulable CPU), and returns after every call completed. The first
// error in shard order is returned.
func (s *Sharded) fanOut(fn func(i int, b ShardBackend) error) error {
	if len(s.backends) == 1 || runtime.GOMAXPROCS(0) == 1 {
		for i, b := range s.backends {
			if err := fn(i, b); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(s.backends))
	var wg sync.WaitGroup
	wg.Add(len(s.backends))
	for i, b := range s.backends {
		go func(i int, b ShardBackend) {
			defer wg.Done()
			errs[i] = fn(i, b)
		}(i, b)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// QueryCtx answers q over every shard concurrently. The sharded order is
// shard 0's matches, then shard 1's, and so on, so each shard is asked for
// its first Offset+Limit matches and its total — one call per shard, never
// more than that many documents each — and the window is cut from their
// concatenation; groups are added up in the same order. Under
// WithPartialReads, unreachable shards are recorded and count as empty
// instead of failing the query. Explain asks shard 0, since all shards
// share one index layout.
func (s *Sharded) QueryCtx(ctx context.Context, q Query) (Result, error) {
	if q.Explain {
		return s.backends[0].Query(ctx, q)
	}
	q.Offset = max(q.Offset, 0)
	perShard := Query{Filter: q.Filter, Limit: q.end(), Fields: q.Fields, GroupBy: q.GroupBy}
	parts := make([]Result, len(s.backends))
	err := s.fanOut(func(i int, b ShardBackend) error {
		res, err := b.Query(ctx, perShard)
		if AbsorbShardError(ctx, s.ns, i, err) {
			return nil
		}
		parts[i] = res
		return err
	})
	if err != nil {
		return Result{}, err
	}
	var out Result
	held := 0
	for _, p := range parts {
		out.Total += p.Total
		held += len(p.Docs)
	}
	room := held
	if q.Limit >= 0 {
		room = min(q.Limit, held)
	}
	out.Docs = make([]*Doc, 0, room)
	skip := int64(q.Offset)
	for _, p := range parts {
		if skip >= p.Total {
			skip -= p.Total
			continue
		}
		// A shard holds at least skip documents unless it broke the
		// contract; trust its slice, not its total.
		docs := p.Docs[min(skip, int64(len(p.Docs))):]
		skip = 0
		out.Docs = append(out.Docs, docs[:min(len(docs), room-len(out.Docs))]...)
	}
	if q.GroupBy != "" {
		out.Groups = mergeGroups(parts)
	}
	return out, nil
}

// mergeGroups adds up the shards' groups in shard order, so a key keeps the
// place of its first match in the sharded order.
func mergeGroups(parts []Result) []Group {
	if len(parts) == 1 {
		return parts[0].Groups
	}
	var out []Group
	slot := make(map[string]int)
	for _, p := range parts {
		for _, g := range p.Groups {
			if i, ok := slot[g.Key]; ok {
				out[i].Count += g.Count
				continue
			}
			slot[g.Key] = len(out)
			out = append(out, g)
		}
	}
	return out
}

// FindCtx is the unbounded query: every document matching filter.
func (s *Sharded) FindCtx(ctx context.Context, filter Filter) ([]*Doc, error) {
	res, err := s.QueryCtx(ctx, Query{Filter: filter, Limit: NoLimit})
	return res.Docs, err
}

// DistinctCtx returns the distinct scalar values at path with their
// frequencies: the unfiltered group count as a map.
func (s *Sharded) DistinctCtx(ctx context.Context, path string) (map[string]int64, error) {
	res, err := s.QueryCtx(ctx, Query{GroupBy: path})
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(res.Groups))
	for _, g := range res.Groups {
		out[g.Key] = g.Count
	}
	return out, nil
}

// Stats merges shard stats into namespace-wide stats, the view the paper's
// Tables I and II quote from the router. Shards are measured concurrently.
func (s *Sharded) Stats() Stats {
	st, _ := s.StatsCtx(context.Background())
	return st
}

// StatsCtx is Stats with context propagation and remote-failure reporting.
func (s *Sharded) StatsCtx(ctx context.Context) (Stats, error) {
	parts := make([]Stats, len(s.backends))
	err := s.fanOut(func(i int, b ShardBackend) error {
		st, err := b.Stats(ctx)
		if AbsorbShardError(ctx, s.ns, i, err) {
			return nil
		}
		parts[i] = st
		return err
	})
	if err != nil {
		return Stats{}, err
	}
	return Merge(s.ns, parts), nil
}
