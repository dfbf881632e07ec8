package store

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/dterr"
)

// TestShardForStability pins the routing function: the inlined FNV-1a loop
// must assign every key to the same shard hash/fnv would, so a store built
// before the allocation-free rewrite routes identically after it.
func TestShardForStability(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 16} {
		s := NewSharded("dt.pin", "name", shards, 0)
		for i := 0; i < 500; i++ {
			key := fmt.Sprintf("entity-%04d", i)
			h := fnv.New32a()
			h.Write([]byte(key))
			want := int(h.Sum32()) % shards
			if got := s.shardFor(NewDoc(F("name", Str(key)))); got != want {
				t.Fatalf("shards=%d key=%q: shardFor = %d, want %d", shards, key, got, want)
			}
		}
	}
	// Missing shard keys route to shard 0.
	s := NewSharded("dt.pin", "name", 4, 0)
	if got := s.shardFor(NewDoc(F("other", Str("x")))); got != 0 {
		t.Errorf("missing key routed to shard %d", got)
	}
}

// TestShardedConcurrentInsert exercises the documented concurrency contract
// of the router under -race: concurrent inserts overlap the read fan-out,
// and every document must land exactly once.
func TestShardedConcurrentInsert(t *testing.T) {
	ctx := context.Background()
	s := NewSharded("dt.conc", "name", 4, 0)
	const writers, perWriter = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s.Insert(entityDoc(fmt.Sprintf("w%d-%d", w, i), "Movie", int64(i)))
			}
		}(w)
	}
	// Concurrent readers overlap the writes to exercise the read fan-out.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s.QueryCtx(ctx, Query{Filter: EqStr("type", "Movie")})
				s.DistinctCtx(ctx, "type")
				s.StatsCtx(ctx)
			}
		}()
	}
	wg.Wait()
	if st, err := s.StatsCtx(ctx); err != nil || st.Count != writers*perWriter {
		t.Fatalf("count = %d, %v, want %d", st.Count, err, writers*perWriter)
	}
	var assigned int64
	for i := 0; i < s.NumShards(); i++ {
		assigned += s.Shard(i).Count()
	}
	if assigned != writers*perWriter {
		t.Errorf("shard counts sum to %d, want %d", assigned, writers*perWriter)
	}
}

// TestShardedCountsAfterDirectInsert pins the router's counts to live shard
// state: documents inserted through a shard handle (not the router) must
// show in the merged stats and in a count-only query.
func TestShardedCountsAfterDirectInsert(t *testing.T) {
	ctx := context.Background()
	s := NewSharded("dt.bal", "name", 3, 0)
	for i := 0; i < 50; i++ {
		s.Insert(entityDoc(fmt.Sprintf("bal-%02d", i), "T", 0))
	}
	for i := 0; i < 10; i++ {
		s.Shard(i % 3).Insert(entityDoc(fmt.Sprintf("direct-%02d", i), "T", 0))
	}
	if st, err := s.StatsCtx(ctx); err != nil || st.Count != 60 {
		t.Errorf("stats count = %d, %v after direct inserts, want 60", st.Count, err)
	}
	if res, err := s.QueryCtx(ctx, Query{}); err != nil || res.Total != 60 || len(res.Docs) != 0 {
		t.Errorf("count-only query = %d (%d docs), %v, want 60", res.Total, len(res.Docs), err)
	}
}

// TestInsertManyEqualsSerialInserts: a batch lands every document on the
// shard, under the id and in the order that one InsertCtx per document gives
// it, whatever the shard count, and an empty batch is nothing.
func TestInsertManyEqualsSerialInserts(t *testing.T) {
	ctx := context.Background()
	for _, shards := range []int{1, 4} {
		serial := NewSharded("dt.batch", "name", shards, 0)
		batched := NewSharded("dt.batch", "name", shards, 0)
		next := 0
		for _, size := range []int{0, 1, 7, 60, 2} {
			docs := make([]*Doc, size)
			for i := range docs {
				docs[i] = entityDoc(fmt.Sprintf("doc-%02d", next%40), "T", int64(next)) // names repeat: shards take runs
				next++
				serial.Insert(docs[i])
			}
			if err := batched.InsertManyCtx(ctx, docs); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < shards; i++ {
			wantIDs, wantDocs := members(serial.Shard(i))
			gotIDs, gotDocs := members(batched.Shard(i))
			if !slices.Equal(gotIDs, wantIDs) || !slices.Equal(gotDocs, wantDocs) {
				t.Fatalf("%d shards, shard %d: batched ids %v, serial %v (or other documents under them)", shards, i, gotIDs, wantIDs)
			}
		}
	}
}

// TestShardedFanOutEquivalence checks that the concurrent fan-out returns
// exactly what a serial per-shard walk would: same documents, same shard
// order, same counts and distinct tallies.
func TestShardedFanOutEquivalence(t *testing.T) {
	ctx := context.Background()
	s := NewSharded("dt.fan", "name", 5, 0)
	for i := 0; i < 300; i++ {
		typ := "Movie"
		if i%3 == 0 {
			typ = "Person"
		}
		s.Insert(entityDoc(fmt.Sprintf("doc-%03d", i), typ, int64(i%7)))
	}

	filter := EqStr("type", "Movie")
	var serialDocs, serialAll []*Doc
	serialDistinct := map[string]int64{}
	for i := 0; i < s.NumShards(); i++ {
		sh := s.Shard(i)
		serialDocs = append(serialDocs, find(sh, filter)...)
		serialAll = append(serialAll, find(sh, nil)...)
		for _, d := range find(sh, nil) {
			serialDistinct[d.PathString("type")]++
		}
	}

	// The filtered list, then the whole namespace: shard by shard, each
	// shard in its own order.
	for _, tc := range []struct {
		filter Filter
		want   []*Doc
	}{{filter, serialDocs}, {nil, serialAll}} {
		res, err := s.QueryCtx(ctx, Query{Filter: tc.filter, Limit: NoLimit})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Docs, tc.want) || res.Total != int64(len(tc.want)) {
			t.Fatalf("filter %v: %d docs, total %d; serial walk has %d", tc.filter, len(res.Docs), res.Total, len(tc.want))
		}
		if res, err := s.QueryCtx(ctx, Query{Filter: tc.filter}); err != nil || res.Total != int64(len(tc.want)) {
			t.Errorf("filter %v: count-only total = %d, %v, want %d", tc.filter, res.Total, err, len(tc.want))
		}
	}
	if len(serialAll) != 300 {
		t.Errorf("whole-namespace walk has %d docs, want 300", len(serialAll))
	}
	if got, err := s.DistinctCtx(ctx, "type"); err != nil || !reflect.DeepEqual(got, serialDistinct) {
		t.Errorf("Distinct = %v, %v, want %v", got, err, serialDistinct)
	}
}

// failingShard is a shard whose inserts store nothing and fail with err. It
// keeps what it was asked to store.
type failingShard struct {
	LocalShard
	err   error
	asked *[]*Doc
}

func (f failingShard) Insert(_ context.Context, docs ...*Doc) ([]int64, error) {
	*f.asked = append(*f.asked, docs...)
	return nil, f.err
}

// TestInsertManyFailingShardSparesTheOthers pins the batch write's contract
// with two of four shards failing, whether the shards are loaded at once or
// one after another (GOMAXPROCS=1): every shard is asked for its whole
// share, in batch order, so each healthy one holds it; and the error
// returned is the first failing shard's, with its dterr code.
func TestInsertManyFailingShardSparesTheOthers(t *testing.T) {
	ctx := context.Background()
	const shards = 4
	docs := make([]*Doc, 200)
	want := make([][]*Doc, shards)
	for i := range docs {
		name := fmt.Sprintf("doc-%03d", i%150)
		docs[i] = entityDoc(name, "T", int64(i))
		h := fnv.New32a()
		h.Write([]byte(name))
		want[int(h.Sum32())%shards] = append(want[int(h.Sum32())%shards], docs[i])
	}
	fails := map[int]dterr.Code{1: dterr.CodeBusy, 3: dterr.CodeUnavailable}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		backends := make([]ShardBackend, shards)
		asked := make([][]*Doc, shards)
		for i := range backends {
			local := LocalShard{Coll: NewCollection("dt.fail", 0)}
			backends[i] = local
			if code, ok := fails[i]; ok {
				backends[i] = failingShard{LocalShard: local, err: dterr.Newf(code, "shard %d is down", i), asked: &asked[i]}
			}
		}
		s, err := NewShardedBackends("dt.fail", "name", backends)
		if err != nil {
			t.Fatal(err)
		}
		err = s.InsertManyCtx(ctx, docs)
		runtime.GOMAXPROCS(prev)
		if !errors.Is(err, dterr.ErrBusy) || dterr.CodeOf(err) != dterr.CodeBusy {
			t.Errorf("GOMAXPROCS=%d: InsertManyCtx = %v, want shard 1's busy error", procs, err)
		}
		for i := range backends {
			got := asked[i]
			if coll := s.Shard(i); coll != nil {
				_, got = members(coll)
			}
			if !slices.Equal(got, want[i]) {
				t.Errorf("GOMAXPROCS=%d: shard %d got %d documents of its share of %d, or in another order", procs, i, len(got), len(want[i]))
			}
		}
	}
}

// TestEnsureIndexCancelledTouchesNoShard: every shard checks the context
// before it builds, so a cancelled index creation builds nothing anywhere.
func TestEnsureIndexCancelledTouchesNoShard(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := NewSharded("dt.ix", "name", 4, 0)
	s.Insert(entityDoc("Matilda", "Movie", 1))
	for _, ix := range []IndexSpec{{Name: "type_1", Path: "type", Kind: HashIndex}, {Path: "name", Kind: TextIndex}} {
		if err := s.EnsureIndexCtx(ctx, ix); !errors.Is(err, dterr.ErrCanceled) {
			t.Errorf("EnsureIndexCtx(%+v) = %v, want canceled", ix, err)
		}
	}
	for i := 0; i < s.NumShards(); i++ {
		if c := s.Shard(i); len(c.indexes) != 0 || len(c.text) != 0 {
			t.Errorf("shard %d built %d indexes and %d text indexes", i, len(c.indexes), len(c.text))
		}
	}
}
