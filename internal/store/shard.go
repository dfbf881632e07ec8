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
// nil. A shard only appends: its writes are inserts and index creation,
// and nothing replaces or removes a stored document.
type ShardBackend interface {
	// NS returns the backend's namespace, which must match the router's.
	NS() string
	// Insert stores docs in order and returns their shard-local ids — the
	// ids one call per document would have assigned. A failed call may have
	// stored a leading part of the list.
	Insert(ctx context.Context, docs ...*Doc) ([]int64, error)
	// Query answers q against the shard: a window of the matching
	// documents in the shard's order, their exact total and group counts,
	// or the plan. A backend may answer with the window still encoded, in
	// Result.Encoded instead of Result.Docs; Result.Window reads either.
	Query(ctx context.Context, q Query) (Result, error)
	// Stats returns the shard's storage statistics.
	Stats(ctx context.Context) (Stats, error)
	// CreateIndex ensures the index ix (Collection.EnsureIndex).
	CreateIndex(ctx context.Context, ix IndexSpec) error
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

// Query implements ShardBackend.
func (l LocalShard) Query(_ context.Context, q Query) (Result, error) {
	return l.Coll.Query(q), nil
}

// Stats implements ShardBackend.
func (l LocalShard) Stats(_ context.Context) (Stats, error) { return l.Coll.Stats(), nil }

// CreateIndex implements ShardBackend.
func (l LocalShard) CreateIndex(_ context.Context, ix IndexSpec) error {
	l.Coll.EnsureIndex(ix)
	return nil
}

// Sharded is a collection distributed over N shards by a hash of the shard
// key path. Each shard is an independent backend — an in-process Collection
// or a remote proxy — as in the paper's distributed deployment; the router
// fans reads and batch writes out to all shards concurrently and merges
// results in shard order, so an operation pays for the slowest shard rather
// than the sum of all of them. Sharded is safe for concurrent use.
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
		backends = append(backends, LocalShard{Coll: NewCollection(ns, extentSize)})
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
// in one backend call, every shard at once (see fanOut). A shard sees its
// documents in the order they have in docs, so every document gets the id
// InsertCtx calls in that order would have given it. A failing shard stops
// no other: each of them is asked for its whole share, and the error
// returned is the first in shard order.
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
	return s.fanOut(func(i int, b ShardBackend) error {
		if len(shares[i]) == 0 {
			return nil
		}
		_, err := b.Insert(ctx, shares[i]...)
		return err
	})
}

// EnsureIndex creates the secondary index name over path on every shard.
func (s *Sharded) EnsureIndex(name, path string, kind IndexKind) {
	_ = s.EnsureIndexCtx(context.Background(), IndexSpec{Name: name, Path: path, Kind: kind})
}

// EnsureTextIndex creates the text index over path on every shard.
func (s *Sharded) EnsureTextIndex(path string) {
	_ = s.EnsureIndexCtx(context.Background(), IndexSpec{Path: path, Kind: TextIndex})
}

// EnsureIndexCtx creates the index ix on every shard at once, propagating
// failures.
func (s *Sharded) EnsureIndexCtx(ctx context.Context, ix IndexSpec) error {
	return s.fanOut(func(_ int, b ShardBackend) error {
		// Local shards build synchronously and ignore ctx; checking before
		// each shard is what lets a cancelled restore stop mid-rebuild.
		if err := ctx.Err(); err != nil {
			return dterr.FromContext(err)
		}
		return b.CreateIndex(ctx, ix)
	})
}

// fanOut runs fn once per shard — reads and writes alike — concurrently
// when parallelism can actually overlap the work (more than one shard and
// more than one schedulable CPU), and returns after every call completed:
// a failing call stops no other. The first error in shard order is
// returned.
func (s *Sharded) fanOut(fn func(i int, b ShardBackend) error) error {
	if len(s.backends) == 1 || runtime.GOMAXPROCS(0) == 1 {
		var first error
		for i, b := range s.backends {
			if err := fn(i, b); err != nil && first == nil {
				first = err
			}
		}
		return first
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
// concatenation, building from an encoded list only the documents the
// window keeps; groups are added up in the same order. A ranked query asks
// each shard for its best Offset+Limit instead, and the window is cut from
// them ranked again — every one built, to be scored — which a shard's
// documents can be only if they hold the rank's path: a ranked query whose
// Fields leave it out is refused. Under WithPartialReads, unreachable
// shards are recorded and count as empty instead of failing the query; a
// malformed reply is no unreachable shard and fails it. Explain asks shard
// 0, since all shards share one index layout.
func (s *Sharded) QueryCtx(ctx context.Context, q Query) (Result, error) {
	if q.Rank != nil {
		if err := q.Rank.check(q.Fields); err != nil {
			return Result{}, err
		}
	}
	if q.Explain {
		return s.backends[0].Query(ctx, q)
	}
	q.Offset = max(q.Offset, 0)
	perShard := Query{Filter: q.Filter, Limit: q.end(), Fields: q.Fields, GroupBy: q.GroupBy, Rank: q.Rank}
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
		held += p.held()
	}
	if q.GroupBy != "" {
		out.Groups = mergeGroups(parts)
	}
	if q.Rank != nil && q.Limit != 0 {
		// The shards' lists come in shard order, each best first, so a tie
		// in score, length and text keeps the sharded order.
		top := topK{rank: q.Rank, k: q.end()}
		for _, p := range parts {
			docs, err := p.Window()
			if err != nil {
				return Result{}, err
			}
			for _, d := range docs {
				top.add(d)
			}
		}
		out.Docs = top.window(q.Offset)
		return out, nil
	}
	room := held
	if q.Limit >= 0 {
		room = min(q.Limit, held)
	}
	out.Docs = make([]*Doc, 0, room)
	skip := int64(q.Offset)
	for _, p := range parts {
		// Every list is read, the ones the window misses too, so that a
		// malformed reply fails the query wherever it lies.
		from, to := 0, 0
		if skip >= p.Total {
			skip -= p.Total
		} else {
			// A shard holds at least skip documents unless it broke the
			// contract; trust its list, not its total.
			n := p.held()
			from = int(min(skip, int64(n)))
			to = from + min(n-from, room-len(out.Docs))
			skip = 0
		}
		var err error
		if out.Docs, err = p.appendWindow(out.Docs, from, to); err != nil {
			return Result{}, err
		}
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
