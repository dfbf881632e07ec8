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
// of varint gaps, a byte an id where ids lie close, in a 24-byte value that
// also holds the highest id; a key of one id holds it there alone. So with
// many ids a key the lists are about a byte an entry, and a key of one id
// pays for its slot in the map or the B-tree node and nothing more. While
// lists were []int64 the measures were 11.22 B (hash) and 11.2 B (B-tree)
// at 1 000 keys × 100 ids and 70.97 and 96.76 B at 100 000 keys of one id;
// now they are 3.54, 3.43, 62.96 and 88.76 B, and the budgets sit within
// 10 % and 5 % above them.
const (
	hashManyIDsBudget  = 3.85 // bytes per entry at 1 000 keys × 100 ids
	btreeManyIDsBudget = 3.75
	hashUniqueBudget   = 66.0 // bytes per entry at 100 000 keys of one id
	btreeUniqueBudget  = 93.0
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
		hash, btree float64 // budgets
	}{
		{1000, 100, hashManyIDsBudget, btreeManyIDsBudget},
		{100_000, 1, hashUniqueBudget, btreeUniqueBudget},
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
		hash := perEntry(func() { c.EnsureIndex(IndexSpec{Name: "k_hash", Path: "k", Kind: HashIndex}) })
		btree := perEntry(func() { c.EnsureIndex(IndexSpec{Name: "k_btree", Path: "k", Kind: BTreeIndex}) })
		text := perEntry(func() { c.EnsureIndex(IndexSpec{Path: "k", Kind: TextIndex}) })
		runtime.KeepAlive(c)
		t.Logf("%d keys × %d ids: hash %.2f B, btree %.2f B, text %.2f B per entry", sh.keys, sh.ids, hash, btree, text)
		if hash > sh.hash {
			t.Errorf("%d keys × %d ids: a hash index holds %.2f B per entry, budget %.2f", sh.keys, sh.ids, hash, sh.hash)
		}
		if btree > sh.btree {
			t.Errorf("%d keys × %d ids: a B-tree index holds %.2f B per entry, budget %.2f", sh.keys, sh.ids, btree, sh.btree)
		}
	}
}
