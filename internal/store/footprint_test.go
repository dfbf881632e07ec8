//go:build !race

// The race detector adds heap of its own to each allocation, so a heap
// budget means nothing under it.

package store

import (
	"fmt"
	"runtime"
	"testing"
)

// Heap budgets per index entry, the key bytes aside (a key aliases the
// document it came from). Every index holds a key's ids in one posting list
// of 8 bytes an id, so with many ids a key the lists are nearly all of it,
// and a key of one id pays for its slot and a list of its own. The hash
// budgets are what a hash index held before the B-tree held posting lists
// too (11.22 and 70.97 B measured), rounded up; the B-tree then held one
// 24-byte (key, id) entry per id, 48.76 B an entry at 1 000 keys × 100 ids
// and 51.61 B at 100 000 keys of one id. The latter shape has no budget:
// no index in use has it (name_1 holds about 12 ids a key).
const (
	hashManyIDsBudget  = 11.25 // bytes per entry at 1 000 keys × 100 ids
	hashUniqueBudget   = 71.0  // bytes per entry at 100 000 keys of one id
	btreeManyIDsBudget = 16.0  // bytes per entry at 1 000 keys × 100 ids
)

// liveHeap returns the heap in use after a collection.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestIndexHeapFootprint measures the heap each kind of index adds to a
// collection, per entry, at two shapes: many ids a key and one. It logs the
// text index's too, which has no budget here.
func TestIndexHeapFootprint(t *testing.T) {
	shapes := []struct {
		keys, ids   int
		hash, btree float64 // budgets; 0 is none
	}{
		{1000, 100, hashManyIDsBudget, btreeManyIDsBudget},
		{100_000, 1, hashUniqueBudget, 0},
	}
	for _, sh := range shapes {
		n := sh.keys * sh.ids
		c := NewCollection("dt.x", 0)
		for i := 0; i < n; i++ {
			c.Insert(NewDoc(F("k", Str(fmt.Sprintf("key-%06d", i%sh.keys)))))
		}
		perEntry := func(build func()) float64 {
			before := liveHeap()
			build()
			return float64(int64(liveHeap())-int64(before)) / float64(n)
		}
		hash := perEntry(func() { c.EnsureIndex("k_hash", "k", HashIndex) })
		btree := perEntry(func() { c.EnsureIndex("k_btree", "k", BTreeIndex) })
		text := perEntry(func() { c.EnsureTextIndex("k") })
		runtime.KeepAlive(c)
		t.Logf("%d keys × %d ids: hash %.2f B, btree %.2f B, text %.2f B per entry", sh.keys, sh.ids, hash, btree, text)
		if hash > sh.hash {
			t.Errorf("%d keys × %d ids: a hash index holds %.1f B per entry, budget %.1f", sh.keys, sh.ids, hash, sh.hash)
		}
		if sh.btree > 0 && btree > sh.btree {
			t.Errorf("%d keys × %d ids: a B-tree index holds %.1f B per entry, budget %.1f", sh.keys, sh.ids, btree, sh.btree)
		}
	}
}
