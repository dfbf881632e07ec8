package btree

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// keys returns the map's keys from ge on, below lt unless it is empty, in
// the order ascend visits them.
func keys[V any](m *Map[V], ge, lt string) []string {
	var got []string
	m.root.ascend(ge, func(k string, _ *V) bool {
		if lt != "" && k >= lt {
			return false
		}
		got = append(got, k)
		return true
	})
	return got
}

// height is the number of levels of the tree, 0 when it is empty.
func height[V any](m *Map[V]) int {
	if len(m.root.items) == 0 {
		return 0
	}
	h := 1
	for n := m.root; len(n.children) > 0; n = n.children[0] {
		h++
	}
	return h
}

func TestInsertLookup(t *testing.T) {
	m := New[int](32)
	*m.Upsert("b") = 2
	*m.Upsert("a") = 1
	*m.Upsert("c") = 3
	if v := m.Upsert("a"); *v != 1 {
		t.Errorf("Upsert of a held key gave %d, want its value 1", *v)
	}
	if got := keys(m, "", ""); len(got) != 3 {
		t.Fatalf("the map holds keys %v, want 3", got)
	}
	if v := m.Get("a"); v != 1 {
		t.Errorf("Get(a) = %d, want 1", v)
	}
	if v := m.Get("missing"); v != 0 {
		t.Errorf("Get(missing) = %d, want the zero value", v)
	}
}

// TestDuplicateKeys: a key is held once, and a value reached through Upsert
// is the one the map holds, so a posting list grows where it lies.
func TestDuplicateKeys(t *testing.T) {
	m := New[[]int64](2)
	for i := int64(0); i < 200; i++ {
		for _, k := range []string{"same", fmt.Sprintf("k%03d", i)} {
			v := m.Upsert(k)
			*v = append(*v, i)
		}
	}
	if got := m.Get("same"); len(got) != 200 || got[0] != 0 || got[199] != 199 {
		t.Fatalf("Get(same) = %v", got)
	}
	*m.Upsert("k007") = nil
	if got := m.Get("k007"); got != nil {
		t.Fatalf("a value set through Upsert reads back %v", got)
	}
	if got := keys(m, "", ""); len(got) != 201 {
		t.Fatalf("the map holds %d keys, want 201", len(got))
	}
}

func TestAscendOrdered(t *testing.T) {
	m := New[int](3)
	in := []string{"delta", "alpha", "echo", "charlie", "bravo"}
	for _, k := range in {
		m.Upsert(k)
	}
	want := append([]string(nil), in...)
	sort.Strings(want)
	if got := keys(m, "", ""); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Ascend order = %v, want %v", got, want)
	}
}

func TestAscendEarlyStop(t *testing.T) {
	m := New[int](32)
	for i := 0; i < 100; i++ {
		m.Upsert(fmt.Sprintf("k%03d", i))
	}
	count := 0
	m.root.ascend("", func(string, *int) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop visited %d, want 5", count)
	}
}

func TestAscendRange(t *testing.T) {
	m := New[int](2)
	for i := 0; i < 50; i++ {
		m.Upsert(fmt.Sprintf("k%02d", i))
	}
	want := []string{"k10", "k11", "k12", "k13", "k14"}
	if got := keys(m, "k10", "k15"); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("range = %v, want %v", got, want)
	}
}

func TestAscendPrefix(t *testing.T) {
	m := New[int64](32)
	*m.Upsert("person:bob") = 2
	*m.Upsert("place:nyc") = 3
	*m.Upsert("person:alice") = 1
	var got []int64
	m.AscendPrefix("person:", func(_ string, v *int64) bool {
		got = append(got, *v)
		return true
	})
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("prefix scan = %v", got)
	}
}

func TestMinMaxHeight(t *testing.T) {
	m := New[int](2)
	if height(m) != 0 {
		t.Error("Height of empty tree should be 0")
	}
	for i := 0; i < 1000; i++ {
		m.Upsert(fmt.Sprintf("k%04d", i))
	}
	all := keys(m, "", "")
	if all[0] != "k0000" || all[len(all)-1] != "k0999" {
		t.Errorf("first/last = %v/%v", all[0], all[len(all)-1])
	}
	// Degree-2 B-tree of 1000 keys must stay logarithmic (< 12 levels).
	if h := height(m); h < 3 || h > 12 {
		t.Errorf("suspicious height %d for 1000 keys at degree 2", h)
	}
}

// TestRandomizedMixedOps: under random upserts and lookups a degree-2 tree
// holds what a Go map does, and visits its keys in order.
func TestRandomizedMixedOps(t *testing.T) {
	m := New[int](2)
	rng := rand.New(rand.NewSource(42))
	ref := map[string]int{}
	for op := 0; op < 5000; op++ {
		k := fmt.Sprintf("k%03d", rng.Intn(200))
		if rng.Intn(2) == 0 {
			*m.Upsert(k) += op + 1 // nonzero: a held key reads unlike an absent one
			ref[k] += op + 1
			continue
		}
		v, held := ref[k]
		if got := m.Get(k); got != v {
			t.Fatalf("op %d: Get(%q) = %d, want %d (held %v)", op, k, got, v, held)
		}
	}
	got := keys(m, "", "")
	if len(got) != len(ref) || !sort.StringsAreSorted(got) {
		t.Fatalf("Ascend visited %d keys, sorted %v; reference holds %d", len(got), sort.StringsAreSorted(got), len(ref))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] == got[i] {
			t.Fatalf("key %q visited twice", got[i])
		}
	}
}

// Property: upserting any set of strings yields an in-order traversal equal
// to the sorted unique input.
func TestQuickSortedTraversal(t *testing.T) {
	f := func(in []string) bool {
		m := New[int](2)
		uniq := map[string]bool{}
		for _, k := range in {
			m.Upsert(k)
			uniq[k] = true
		}
		want := make([]string, 0, len(uniq))
		for k := range uniq {
			want = append(want, k)
		}
		sort.Strings(want)
		return fmt.Sprintf("%q", keys(m, "", "")) == fmt.Sprintf("%q", want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkUpsert(b *testing.B) {
	m := New[[]int64](32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v := m.Upsert(fmt.Sprintf("key-%09d", i))
		*v = append(*v, int64(i))
	}
}

func BenchmarkGet(b *testing.B) {
	m := New[[]int64](32)
	for i := 0; i < 100000; i++ {
		v := m.Upsert(fmt.Sprintf("key-%09d", i))
		*v = append(*v, int64(i))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Get(fmt.Sprintf("key-%09d", i%100000))
	}
}
