package btree

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestInsertLookup(t *testing.T) {
	tr := New()
	if !tr.Insert("b", 2) || !tr.Insert("a", 1) || !tr.Insert("c", 3) {
		t.Fatal("fresh inserts should return true")
	}
	if tr.Insert("a", 1) {
		t.Error("duplicate insert should return false")
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	if ids := tr.Lookup("a"); len(ids) != 1 || ids[0] != 1 {
		t.Errorf("Lookup(a) = %v", ids)
	}
	if ids := tr.Lookup("missing"); len(ids) != 0 {
		t.Errorf("Lookup(missing) = %v", ids)
	}
}

func TestDuplicateKeys(t *testing.T) {
	tr := New()
	for i := int64(0); i < 10; i++ {
		tr.Insert("same", i)
	}
	ids := tr.Lookup("same")
	if len(ids) != 10 {
		t.Fatalf("got %d ids, want 10", len(ids))
	}
	for i, id := range ids {
		if id != int64(i) {
			t.Fatalf("ids not ascending: %v", ids)
		}
	}
}

func TestDelete(t *testing.T) {
	tr := NewDegree(2) // small degree stresses rebalancing
	const n = 500
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		tr.Insert(fmt.Sprintf("k%04d", i), int64(i))
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	for _, i := range rand.New(rand.NewSource(2)).Perm(n) {
		key := fmt.Sprintf("k%04d", i)
		if !tr.Delete(key, int64(i)) {
			t.Fatalf("Delete(%s) = false", key)
		}
		if slices.Contains(tr.Lookup(key), int64(i)) {
			t.Fatalf("Lookup(%s) has %d after delete", key, i)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len after all deletes = %d", tr.Len())
	}
	if tr.Delete("k0000", 0) {
		t.Error("delete from empty tree should return false")
	}
}

func TestAscendOrdered(t *testing.T) {
	tr := NewDegree(3)
	keys := []string{"delta", "alpha", "echo", "charlie", "bravo"}
	for i, k := range keys {
		tr.Insert(k, int64(i))
	}
	var got []string
	tr.AscendRange("", "", func(e Entry) bool {
		got = append(got, e.Key)
		return true
	})
	want := append([]string(nil), keys...)
	sort.Strings(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ascend order = %v, want %v", got, want)
		}
	}
}

func TestAscendEarlyStop(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		tr.Insert(fmt.Sprintf("k%03d", i), int64(i))
	}
	count := 0
	tr.AscendRange("", "", func(e Entry) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop visited %d, want 5", count)
	}
}

func TestAscendRange(t *testing.T) {
	tr := NewDegree(2)
	for i := 0; i < 50; i++ {
		tr.Insert(fmt.Sprintf("k%02d", i), int64(i))
	}
	var got []string
	tr.AscendRange("k10", "k15", func(e Entry) bool {
		got = append(got, e.Key)
		return true
	})
	want := []string{"k10", "k11", "k12", "k13", "k14"}
	if len(got) != len(want) {
		t.Fatalf("range = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range = %v, want %v", got, want)
		}
	}
}

func TestAscendPrefix(t *testing.T) {
	tr := New()
	tr.Insert("person:alice", 1)
	tr.Insert("person:bob", 2)
	tr.Insert("place:nyc", 3)
	var got []int64
	tr.AscendPrefix("person:", func(e Entry) bool {
		got = append(got, e.ID)
		return true
	})
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("prefix scan = %v", got)
	}
}

func TestMinMaxHeight(t *testing.T) {
	tr := NewDegree(2)
	if tr.Height() != 0 {
		t.Error("Height of empty tree should be 0")
	}
	for i := 0; i < 1000; i++ {
		tr.Insert(fmt.Sprintf("k%04d", i), int64(i))
	}
	var mn, mx Entry
	tr.AscendRange("", "", func(e Entry) bool {
		if mn.Key == "" {
			mn = e
		}
		mx = e
		return true
	})
	if mn.Key != "k0000" || mx.Key != "k0999" {
		t.Errorf("first/last = %v/%v", mn, mx)
	}
	// Degree-2 B-tree of 1000 entries must stay logarithmic (< 12 levels).
	if h := tr.Height(); h < 3 || h > 12 {
		t.Errorf("suspicious height %d for 1000 entries at degree 2", h)
	}
}

// checkInvariants walks the tree verifying ordering and node-size bounds.
func checkInvariants(t *testing.T, tr *Tree) {
	t.Helper()
	var prev *Entry
	count := 0
	tr.AscendRange("", "", func(e Entry) bool {
		if prev != nil && !less(*prev, e) {
			t.Fatalf("order violation: %v then %v", *prev, e)
		}
		p := e
		prev = &p
		count++
		return true
	})
	if count != tr.Len() {
		t.Fatalf("Ascend visited %d entries, Len = %d", count, tr.Len())
	}
}

func TestRandomizedMixedOps(t *testing.T) {
	tr := NewDegree(2)
	rng := rand.New(rand.NewSource(42))
	ref := map[Entry]bool{}
	for op := 0; op < 5000; op++ {
		k := fmt.Sprintf("k%03d", rng.Intn(200))
		id := int64(rng.Intn(5))
		e := Entry{Key: k, ID: id}
		if rng.Intn(2) == 0 {
			got := tr.Insert(k, id)
			want := !ref[e]
			if got != want {
				t.Fatalf("op %d: Insert(%v) = %v, want %v", op, e, got, want)
			}
			ref[e] = true
		} else {
			got := tr.Delete(k, id)
			want := ref[e]
			if got != want {
				t.Fatalf("op %d: Delete(%v) = %v, want %v", op, e, got, want)
			}
			delete(ref, e)
		}
	}
	if tr.Len() != len(ref) {
		t.Fatalf("Len = %d, reference = %d", tr.Len(), len(ref))
	}
	checkInvariants(t, tr)
}

// Property: inserting any set of strings yields an in-order traversal equal
// to the sorted unique input.
func TestQuickSortedTraversal(t *testing.T) {
	f := func(keys []string) bool {
		tr := NewDegree(2)
		uniq := map[string]bool{}
		for _, k := range keys {
			tr.Insert(k, 0)
			uniq[k] = true
		}
		want := make([]string, 0, len(uniq))
		for k := range uniq {
			want = append(want, k)
		}
		sort.Strings(want)
		var got []string
		tr.AscendRange("", "", func(e Entry) bool {
			got = append(got, e.Key)
			return true
		})
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkInsert(b *testing.B) {
	tr := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Insert(fmt.Sprintf("key-%09d", i), int64(i))
	}
}

func BenchmarkLookup(b *testing.B) {
	tr := New()
	for i := 0; i < 100000; i++ {
		tr.Insert(fmt.Sprintf("key-%09d", i), int64(i))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Lookup(fmt.Sprintf("key-%09d", i%100000))
	}
}
