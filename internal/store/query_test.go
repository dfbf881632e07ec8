package store

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/record"
)

// paginate is what a caller did before the store paged: slice the window
// out of the whole match list.
func paginate(docs []*Doc, offset, limit int) []*Doc {
	offset = min(max(offset, 0), len(docs))
	end := len(docs)
	if limit >= 0 && limit < end-offset {
		end = offset + limit
	}
	return docs[offset:end]
}

// queryCollection holds 40 entities, every fourth a Movie, with every kind of
// access path over them.
func queryCollection() *Collection {
	c := NewCollection("dt.entity", 0)
	c.EnsureIndex("type_1", "type", HashIndex)
	c.EnsureIndex("name_1", "name", BTreeIndex)
	c.EnsureTextIndex("name")
	types := []string{"Movie", "Person", "Company", "City"}
	for i := 0; i < 40; i++ {
		c.Insert(entityDoc(fmt.Sprintf("The Walking Show %02d", i), types[i%4], int64(i)))
	}
	return c
}

// TestQueryWindowEqualsPaginate checks the window and total of every access
// path against slicing the unbounded answer, at the edges a pager meets.
func TestQueryWindowEqualsPaginate(t *testing.T) {
	c := queryCollection()
	filters := map[string]Filter{
		"hash eq":    EqStr("type", "Movie"),
		"btree eq":   EqStr("name", "The Walking Show 07"),
		"prefix":     Cond{Path: "name", Op: OpPrefix, Value: record.String("The Walking Show 1")},
		"in":         Cond{Path: "type", Op: OpIn, Set: []record.Value{Str("Movie").Scalar(), Str("City").Scalar()}},
		"text":       Contains("name", "walking show 2"),
		"and":        And{EqStr("type", "Person"), Contains("name", "3")},
		"scan":       Cond{Path: "mentions", Op: OpGe, Value: Num(25).Scalar()},
		"all":        nil,
		"no matches": EqStr("type", "Planet"),
	}
	offsets := []int{0, 1, 3, 9, 10, 11, 39, 40, 41, math.MaxInt - 1, math.MaxInt}
	limits := []int{0, 1, 3, 10, 40, 1000, math.MaxInt, NoLimit}
	for name, f := range filters {
		whole := c.Query(Query{Filter: f, Limit: NoLimit})
		if whole.Total != int64(len(whole.Docs)) {
			t.Fatalf("%s: unbounded total %d, %d docs", name, whole.Total, len(whole.Docs))
		}
		for _, offset := range offsets {
			for _, limit := range limits {
				got := c.Query(Query{Filter: f, Offset: offset, Limit: limit})
				want := paginate(whole.Docs, offset, limit)
				if got.Total != whole.Total || !slices.Equal(got.Docs, want) {
					t.Fatalf("%s offset %d limit %d: %d docs of total %d, want %d of %d",
						name, offset, limit, len(got.Docs), got.Total, len(want), whole.Total)
				}
			}
		}
	}
}

// TestShardedQueryWindow does the same through the router, whose shards each
// answer for the first offset+limit matches only.
func TestShardedQueryWindow(t *testing.T) {
	s := NewSharded("dt.entity", "name", 4, 0)
	s.EnsureIndex("type_1", "type", HashIndex)
	for i := 0; i < 200; i++ {
		s.Insert(entityDoc(fmt.Sprintf("E%03d", i), []string{"Movie", "Person"}[i%2], int64(i)))
	}
	ctx := context.Background()
	for _, f := range []Filter{EqStr("type", "Movie"), Cond{Path: "mentions", Op: OpLt, Value: Num(90).Scalar()}, nil} {
		whole, err := s.QueryCtx(ctx, Query{Filter: f, Limit: NoLimit})
		if err != nil {
			t.Fatal(err)
		}
		for _, offset := range []int{0, 7, 49, 50, 99, 100, 101, math.MaxInt} {
			for _, limit := range []int{0, 1, 10, 60, math.MaxInt, NoLimit} {
				got, err := s.QueryCtx(ctx, Query{Filter: f, Offset: offset, Limit: limit})
				if err != nil {
					t.Fatal(err)
				}
				if want := paginate(whole.Docs, offset, limit); got.Total != whole.Total || !slices.Equal(got.Docs, want) {
					t.Fatalf("offset %d limit %d: %d docs of %d, want %d of %d",
						offset, limit, len(got.Docs), got.Total, len(want), whole.Total)
				}
			}
		}
	}
}

// shortShard answers every query with fewer documents than its total
// promises, as a broken or hostile remote shard could.
type shortShard struct{ LocalShard }

func (s shortShard) Query(ctx context.Context, q Query) (Result, error) {
	res, err := s.LocalShard.Query(ctx, q)
	res.Docs = res.Docs[:len(res.Docs)/2]
	res.Total = math.MaxInt64 / 4
	return res, err
}

// TestShardedQueryTrustsDocsNotTotals checks the merge neither indexes past
// a short reply nor sizes its result by a claimed total.
func TestShardedQueryTrustsDocsNotTotals(t *testing.T) {
	backends := make([]ShardBackend, 2)
	for i := range backends {
		c := NewCollection("dt.entity", 0)
		for j := 0; j < 10; j++ {
			c.Insert(entityDoc(fmt.Sprintf("E%d", j), "Movie", 1))
		}
		backends[i] = shortShard{LocalShard{Coll: c}}
	}
	s, err := NewShardedBackends("dt.entity", "name", backends)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []Query{{Offset: 8, Limit: 4}, {Offset: 3, Limit: NoLimit}, {Offset: math.MaxInt, Limit: math.MaxInt}} {
		if res, err := s.QueryCtx(context.Background(), q); err != nil || len(res.Docs) > 10 {
			t.Fatalf("%+v: %d docs, %v", q, len(res.Docs), err)
		}
	}
}

// TestHashPostingsStayInIDOrder: an update re-files a document under its new
// key at its id's place, so index-served results keep the scan's order.
func TestHashPostingsStayInIDOrder(t *testing.T) {
	c := NewCollection("dt.entity", 0)
	c.EnsureIndex("type_1", "type", HashIndex)
	var ids []int64
	for i := 0; i < 6; i++ {
		ids = append(ids, c.Insert(entityDoc(fmt.Sprintf("E%d", i), "Person", 0)))
	}
	for _, i := range []int{4, 1, 3} {
		c.Update(ids[i], entityDoc(fmt.Sprintf("E%d", i), "Movie", 0))
	}
	var got []string
	for _, d := range find(c, EqStr("type", "Movie")) {
		got = append(got, d.PathString("name"))
	}
	if want := []string{"E1", "E3", "E4"}; !slices.Equal(got, want) {
		t.Fatalf("index order after updates = %v, want %v", got, want)
	}
}

// TestDistinctIndexAndFallback pins when an unfiltered group count may read
// an index: never while a list element is filed in it. Either way the keys
// come in the order of their first document.
func TestDistinctIndexAndFallback(t *testing.T) {
	c := NewCollection("dt.entity", 0)
	c.EnsureIndex("tags_1", "tags", HashIndex)
	c.Insert(NewDoc().Set("tags", Str("a")))
	c.Insert(NewDoc().Set("tags", Str("a")))
	c.Insert(NewDoc().Set("tags", Num(7)))
	c.Insert(NewDoc().Set("other", Str("x")))
	want := []Group{{"a", 2}, {"7", 1}}
	if got := c.Query(Query{GroupBy: "tags"}).Groups; !slices.Equal(got, want) {
		t.Fatalf("index-served group count = %v, want %v", got, want)
	}
	// A list is not a scalar value, so the count skips it, but its elements
	// are index keys: the index now over-counts "a" and must not be read.
	listed := c.Insert(NewDoc().Set("tags", List(Str("a"), Str("b"))))
	if got := c.Query(Query{GroupBy: "tags"}).Groups; !slices.Equal(got, want) {
		t.Fatalf("group count with a list-valued doc = %v, want %v", got, want)
	}
	c.Delete(listed)
	if ix := c.indexes["tags_1"]; ix.listEntries != 0 {
		t.Fatalf("listEntries = %d after the list-valued doc left", ix.listEntries)
	}
	if got := c.Query(Query{GroupBy: "tags"}).Groups; !slices.Equal(got, want) {
		t.Fatalf("group count after delete = %v, want %v", got, want)
	}
}

// TestDocPathMatchesSplitWalk compares Path with the strings.Split walk it
// replaced.
func TestDocPathMatchesSplitWalk(t *testing.T) {
	splitWalk := func(d *Doc, path string) (DocValue, bool) {
		cur := d
		parts := strings.Split(path, ".")
		for i, part := range parts {
			v, ok := cur.Get(part)
			if !ok {
				return DocValue{}, false
			}
			if i == len(parts)-1 {
				return v, true
			}
			if !v.IsDoc() {
				return DocValue{}, false
			}
			cur = v.Doc()
		}
		return DocValue{}, false
	}
	d := NewDoc().
		Set("a", Nested(NewDoc().Set("b", Nested(NewDoc().Set("c", Num(1)))).Set("", Str("empty name")))).
		Set("s", Str("scalar")).
		Set("", Nested(NewDoc().Set("x", Num(2))))
	for _, path := range []string{"", ".", "a", "a.", "a.b", "a.b.c", "a.b.c.d", "a..b", ".x", "..", "s", "s.t", "missing", "a.missing", "a.b."} {
		got, gotOK := d.Path(path)
		want, wantOK := splitWalk(d, path)
		if gotOK != wantOK || got.String() != want.String() {
			t.Errorf("Path(%q) = %v, %v; split walk %v, %v", path, got, gotOK, want, wantOK)
		}
	}
}

// ---- allocation budgets -------------------------------------------------

func TestMatchAllocBudget(t *testing.T) {
	d := NewDoc().
		Set("name", Str("The Walking Dead")).
		Set("attributes", Nested(NewDoc().Set("award_winning", Str("true"))))
	nested := EqStr("attributes.award_winning", "true")
	hit, miss := Contains("name", "WALKING d"), Contains("name", "matilda")
	var ok bool
	if n := testing.AllocsPerRun(100, func() { ok = nested.Matches(d) }); n != 0 || !ok {
		t.Errorf("Cond.Matches on a nested path: %.0f allocs (budget 0), matched=%v", n, ok)
	}
	if n := testing.AllocsPerRun(100, func() { ok = hit.Matches(d) }); n != 0 || !ok {
		t.Errorf("OpContains match: %.0f allocs (budget 0), matched=%v", n, ok)
	}
	if n := testing.AllocsPerRun(100, func() { ok = miss.Matches(d) }); n != 0 || ok {
		t.Errorf("OpContains miss: %.0f allocs (budget 0), matched=%v", n, ok)
	}
}

func TestAggregateAllocBudget(t *testing.T) {
	c := queryCollection()
	var st Stats
	if n := testing.AllocsPerRun(100, func() { st = c.Stats() }); n != 0 || st.Count != 40 {
		t.Errorf("Stats: %.0f allocs (budget 0), count %d", n, st.Count)
	}
	// Counting by type off type_1 allocates the four groups' slice and
	// nothing else.
	var res Result
	q := Query{GroupBy: "type"}
	if n := testing.AllocsPerRun(100, func() { res = c.Query(q) }); n > 1 || len(res.Groups) != 4 || res.Groups[0] != (Group{"Movie", 10}) {
		t.Errorf("group count by type with type_1: %.0f allocs (budget: the groups), %v", n, res.Groups)
	}
}

// TestGroupCountAllocatesForTheGroups: a filtered group count costs its
// groups, whatever the number of matches it counts into them.
func TestGroupCountAllocatesForTheGroups(t *testing.T) {
	filters := []Filter{
		EqStr("type", "Movie"), // proven by type_1, each match still grouped
		And{EqStr("type", "Movie"), Cond{Path: "mentions", Op: OpGe, Value: Num(0).Scalar()}},
		Cond{Path: "mentions", Op: OpGe, Value: Num(0).Scalar()}, // a scan
	}
	allocs := func(matches int, f Filter) float64 {
		c := NewCollection("dt.entity", 0)
		c.EnsureIndex("type_1", "type", HashIndex)
		for i := 0; i < 2*matches; i++ {
			typ := []string{"Movie", "Person"}[i%2]
			if _, scan := f.(Cond); scan && typ == "Person" {
				continue
			}
			c.Insert(entityDoc(fmt.Sprintf("Show %d", i%20), typ, int64(i)))
		}
		q := Query{Filter: f, GroupBy: "name"}
		var res Result
		n := testing.AllocsPerRun(20, func() { res = c.Query(q) })
		if res.Total != int64(matches) || len(res.Groups) != 10 || res.Groups[0] != (Group{"Show 0", int64(matches / 10)}) {
			t.Fatalf("%v grouped by name: total %d, groups %v", f, res.Total, res.Groups)
		}
		return n
	}
	for _, f := range filters {
		small, large := allocs(1000, f), allocs(8000, f)
		if small != large || large > 12 {
			t.Errorf("%v grouped by name into 10 keys: %.0f allocs over 1 000 matches, %.0f over 8 000 (budget 12: the groups and their slots)", f, small, large)
		}
	}
}

// TestPagedQueryAllocatesForThePage: a page of ten out of a 10 000-id posting
// list costs the page, not the list.
func TestPagedQueryAllocatesForThePage(t *testing.T) {
	c := NewCollection("dt.entity", 0)
	c.EnsureIndex("type_1", "type", HashIndex)
	for i := 0; i < 10000; i++ {
		c.Insert(entityDoc("E", "Movie", 0))
	}
	q := Query{Filter: EqStr("type", "Movie"), Offset: 5000, Limit: 10}
	var res Result
	perRun := func(n int, q Query) (allocs float64, bytes uint64) {
		allocs = testing.AllocsPerRun(n, func() { res = c.Query(q) })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			res = c.Query(q)
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / uint64(n)
	}
	allocs, bytes := perRun(50, q)
	if res.Total != 10000 || len(res.Docs) != 10 {
		t.Fatalf("page = %d docs of %d", len(res.Docs), res.Total)
	}
	if allocs > 1 || bytes > 1024 {
		t.Errorf("limit=10 over 10 000 matches: %.0f allocs, %d B per query (budget: 1 alloc, the page)", allocs, bytes)
	}
	q.Limit = 0
	if allocs, _ := perRun(50, q); allocs != 0 || res.Total != 10000 {
		t.Errorf("count-only over 10 000 matches: %.0f allocs (budget 0), total %d", allocs, res.Total)
	}
}
