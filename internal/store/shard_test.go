package store

import (
	"context"
	"fmt"
	"hash/fnv"
	"reflect"
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
// of the router under -race: concurrent inserts must not race on the
// per-shard assignment counters, and every document must land exactly once.
func TestShardedConcurrentInsert(t *testing.T) {
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
				s.Count()
				s.CountWhereCtx(context.Background(), EqStr("type", "Movie"))
				s.Balance()
				s.Stats()
			}
		}()
	}
	wg.Wait()
	if got := s.Count(); got != writers*perWriter {
		t.Fatalf("count = %d, want %d", got, writers*perWriter)
	}
	var assigned int64
	for _, n := range s.Balance() {
		assigned += n
	}
	if assigned != writers*perWriter {
		t.Errorf("balance sums to %d, want %d", assigned, writers*perWriter)
	}
}

// TestShardedBalanceAfterDirectDelete pins Balance to live shard state:
// documents deleted through a shard handle (not the router) must drop out
// of the balance report.
func TestShardedBalanceAfterDirectDelete(t *testing.T) {
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
	var total int64
	for _, n := range s.Balance() {
		total += n
	}
	if total != 50 {
		t.Errorf("balance sums to %d after deletes, want 50", total)
	}
	if got := s.Count(); got != 50 {
		t.Errorf("count = %d, want 50", got)
	}
}

// TestShardedFanOutEquivalence checks that the concurrent fan-out returns
// exactly what a serial per-shard walk would: same documents, same shard
// order, same counts and distinct tallies.
func TestShardedFanOutEquivalence(t *testing.T) {
	s := NewSharded("dt.fan", "name", 5, 0)
	for i := 0; i < 300; i++ {
		typ := "Movie"
		if i%3 == 0 {
			typ = "Person"
		}
		s.Insert(entityDoc(fmt.Sprintf("doc-%03d", i), typ, int64(i%7)))
	}

	filter := EqStr("type", "Movie")
	var serialDocs []*Doc
	var serialCount int64
	serialDistinct := map[string]int64{}
	for i := 0; i < s.NumShards(); i++ {
		sh := s.Shard(i)
		serialDocs = append(serialDocs, sh.Find(filter)...)
		serialCount += sh.CountWhere(filter)
		for k, v := range sh.Distinct("type") {
			serialDistinct[k] += v
		}
	}

	gotDocs := s.Find(filter)
	if len(gotDocs) != len(serialDocs) {
		t.Fatalf("Find returned %d docs, serial %d", len(gotDocs), len(serialDocs))
	}
	for i := range gotDocs {
		if gotDocs[i] != serialDocs[i] {
			t.Fatalf("Find doc %d differs from serial walk", i)
		}
	}
	if got, _ := s.CountWhereCtx(context.Background(), filter); got != serialCount {
		t.Errorf("CountWhere = %d, want %d", got, serialCount)
	}
	if got := s.Distinct("type"); !reflect.DeepEqual(got, serialDistinct) {
		t.Errorf("Distinct = %v, want %v", got, serialDistinct)
	}

	// Scan delivers shard-by-shard in shard order.
	lastShard := -1
	visited := 0
	s.Scan(func(shard int, _ int64, _ *Doc) bool {
		if shard < lastShard {
			t.Fatalf("scan left shard %d for earlier shard %d", lastShard, shard)
		}
		lastShard = shard
		visited++
		return true
	})
	if int64(visited) != s.Count() {
		t.Errorf("scan visited %d of %d", visited, s.Count())
	}
}
