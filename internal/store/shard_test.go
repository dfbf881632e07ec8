package store

import (
	"context"
	"fmt"
	"hash/fnv"
	"reflect"
	"slices"
	"sync"
	"testing"
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
			if got := s.shardFor(NewDoc().Set("name", Str(key))); got != want {
				t.Fatalf("shards=%d key=%q: shardFor = %d, want %d", shards, key, got, want)
			}
		}
	}
	// Missing shard keys route to shard 0.
	s := NewSharded("dt.pin", "name", 4, 0)
	if got := s.shardFor(NewDoc().Set("other", Str("x"))); got != 0 {
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

// TestShardedCountsAfterDirectDelete pins the router's counts to live shard
// state: documents deleted through a shard handle (not the router) must
// drop out of the merged stats and of a count-only query.
func TestShardedCountsAfterDirectDelete(t *testing.T) {
	ctx := context.Background()
	s := NewSharded("dt.bal", "name", 3, 0)
	type loc struct {
		shard int
		id    int64
	}
	var locs []loc
	for i := 0; i < 60; i++ {
		sh, id := s.Insert(entityDoc(fmt.Sprintf("bal-%02d", i), "T", 0))
		locs = append(locs, loc{sh, id})
	}
	for _, l := range locs[:10] {
		if !s.Shard(l.shard).Delete(l.id) {
			t.Fatalf("delete %v failed", l)
		}
	}
	if st, err := s.StatsCtx(ctx); err != nil || st.Count != 50 {
		t.Errorf("stats count = %d, %v after deletes, want 50", st.Count, err)
	}
	if res, err := s.QueryCtx(ctx, Query{}); err != nil || res.Total != 50 || len(res.Docs) != 0 {
		t.Errorf("count-only query = %d (%d docs), %v, want 50", res.Total, len(res.Docs), err)
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
