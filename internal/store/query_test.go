package store

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

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
	c.EnsureIndex(IndexSpec{Name: "type_1", Path: "type", Kind: HashIndex})
	c.EnsureIndex(IndexSpec{Name: "name_1", Path: "name", Kind: BTreeIndex})
	c.EnsureIndex(IndexSpec{Path: "name", Kind: TextIndex})
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

// TestHashPostingsStayInIDOrder: a posting list is its documents in id
// order however they reached it — a backfill, an insert, a replay past a
// gap — so index-served results keep the scan's order.
func TestHashPostingsStayInIDOrder(t *testing.T) {
	c := NewCollection("dt.entity", 0)
	typ := func(i int) string { return []string{"Person", "Movie"}[i%3%2] }
	for i := 0; i < 4; i++ {
		c.Insert(entityDoc(fmt.Sprintf("E%d", i), typ(i), 0))
	}
	c.EnsureIndex(IndexSpec{Name: "type_1", Path: "type", Kind: HashIndex})
	for i := 4; i < 6; i++ {
		c.Insert(entityDoc(fmt.Sprintf("E%d", i), typ(i), 0))
	}
	if err := c.ApplyReplay(9, NewDoc(F("name", Str("E9")), F("type", List(Str("Movie"), Str("Movie"))))); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range find(c, EqStr("type", "Movie")) {
		got = append(got, d.PathString("name"))
	}
	if want := []string{"E1", "E4", "E9"}; !slices.Equal(got, want) {
		t.Fatalf("index order = %v, want %v", got, want)
	}
}

// TestDistinctIndexAndFallback pins when an unfiltered group count may read
// an index: never while a list element is filed in it. Either way the keys
// come in the order of their first document.
func TestDistinctIndexAndFallback(t *testing.T) {
	c := NewCollection("dt.entity", 0)
	c.EnsureIndex(IndexSpec{Name: "tags_1", Path: "tags", Kind: HashIndex})
	c.Insert(NewDoc(F("tags", Str("a"))))
	c.Insert(NewDoc(F("tags", Str("a"))))
	c.Insert(NewDoc(F("tags", Num(7))))
	c.Insert(NewDoc(F("other", Str("x"))))
	want := []Group{{"a", 2}, {"7", 1}}
	if got := c.Query(Query{GroupBy: "tags"}).Groups; !slices.Equal(got, want) {
		t.Fatalf("index-served group count = %v, want %v", got, want)
	}
	// A list is not a scalar value, so the count skips it, but its elements
	// are index keys: the index now over-counts "a" and must not be read.
	c.Insert(NewDoc(F("tags", List(Str("a"), Str("b")))))
	if got := c.Query(Query{GroupBy: "tags"}).Groups; !slices.Equal(got, want) {
		t.Fatalf("group count with a list-valued doc = %v, want %v", got, want)
	}
}

// TestIndexAnswersWhatAScanAnswers: a key is the rendering of a value, so the
// string "27" and the number 27 share one, as do "true" and true and "2.5"
// and 2.5. Eq and In answer the same over an index of either kind as over
// none, whatever kinds are asked for and held — strings only too, where a
// string asked for is answered off the posting list unchecked.
func TestIndexAnswersWhatAScanAnswers(t *testing.T) {
	mixed := []record.Value{
		record.String("27"), record.Int(27), record.String("true"), record.Bool(true),
		record.String("2.5"), record.Float(2.5), record.String("x"),
	}
	strs := []record.Value{record.String("27"), record.String("true"), record.String("x")}
	build := func(held []record.Value, indexed bool, kind IndexKind) *Collection {
		c := NewCollection("dt.entity", 0)
		if indexed {
			c.EnsureIndex(IndexSpec{Name: "v_1", Path: "v", Kind: kind})
		}
		for i, v := range held {
			c.Insert(NewDoc(F("n", Num(int64(i))), F("v", Scalar(v))))
		}
		return c
	}
	numbers := func(docs []*Doc) []string {
		var out []string
		for _, d := range docs {
			out = append(out, d.PathString("n"))
		}
		return out
	}
	var filters []Filter
	for _, v := range mixed {
		filters = append(filters, Eq("v", v), Cond{Path: "v", Op: OpIn, Set: []record.Value{v, record.String("x")}})
	}
	filters = append(filters, Cond{Path: "v", Op: OpIn, Set: []record.Value{record.Int(27), record.String("true")}})
	for _, held := range [][]record.Value{mixed, strs} {
		scan := build(held, false, HashIndex)
		for _, kind := range []IndexKind{HashIndex, BTreeIndex} {
			c := build(held, true, kind)
			for _, f := range filters {
				if ex := explain(c, f); ex.AccessPath != "index" {
					t.Fatalf("%+v over a %v index: plan %+v", f, kind, ex)
				}
				got, want := c.Query(Query{Filter: f, Limit: NoLimit}), scan.Query(Query{Filter: f, Limit: NoLimit})
				if got.Total != want.Total || !slices.Equal(numbers(got.Docs), numbers(want.Docs)) {
					t.Errorf("%+v over %d values, %v index: %d matches %v, a scan finds %d %v",
						f, len(held), kind, got.Total, numbers(got.Docs), want.Total, numbers(want.Docs))
				}
			}
		}
	}
}

// TestIndexFindsEveryEqualValue: record.Compare equates numbers whatever
// their kind, while an index key is a rendering, so the float 1e+06 and the
// integer 1000000 lie under different keys, as do 0 and -0, and a NaN
// equals every number. An Eq or In asking for a number, over an index of
// either kind holding numbers, finds what a scan finds, both ways round:
// through the index where the keys of the equal numbers can be listed, by a
// scan where they cannot (NaN, and 2^60, which integers of many renderings
// round to). So does one asking for a time in another zone than the held
// one's, which it equals and renders otherwise: by a scan.
func TestIndexFindsEveryEqualValue(t *testing.T) {
	noon := time.Date(2024, 5, 1, 12, 0, 0, 0, time.UTC)
	held := []record.Value{
		record.Float(1e6), record.Int(1000000), record.String("1000000"), record.Float(math.Copysign(0, -1)),
		record.Int(0), record.Float(2.5), record.Int(1 << 60), record.Int(1<<60 + 1), record.Time(noon),
	}
	asks := []struct {
		f       Filter
		indexed bool
	}{
		{Eq("v", record.Int(1000000)), true},
		{Eq("v", record.Float(1e6)), true},
		{Eq("v", record.Int(0)), true},
		{Eq("v", record.Float(0)), true},
		{Eq("v", record.Float(2.5)), true},
		{Cond{Path: "v", Op: OpIn, Set: []record.Value{record.String("x"), record.Float(1e6)}}, true},
		{Cond{Path: "v", Op: OpIn, Set: []record.Value{record.Int(1000000), record.Int(0)}}, true},
		{Eq("v", record.Int(1<<60)), false},
		{Eq("v", record.Float(math.NaN())), false},
		{Eq("v", record.Time(noon.In(time.FixedZone("UTC+2", 2*3600)))), false},
	}
	numbers := func(docs []*Doc) []string {
		var out []string
		for _, d := range docs {
			out = append(out, d.PathString("n"))
		}
		return out
	}
	for _, values := range [][]record.Value{held, append(slices.Clone(held), record.Float(math.NaN()))} {
		build := func(indexed bool, kind IndexKind) *Collection {
			c := NewCollection("dt.entity", 0)
			if indexed {
				c.EnsureIndex(IndexSpec{Name: "v_1", Path: "v", Kind: kind})
			}
			for i, v := range values {
				c.Insert(NewDoc(F("n", Num(int64(i))), F("v", Scalar(v))))
			}
			return c
		}
		scan := build(false, HashIndex)
		for _, kind := range []IndexKind{HashIndex, BTreeIndex} {
			c := build(true, kind)
			for _, a := range asks {
				if ex := explain(c, a.f); (ex.AccessPath == "index") != a.indexed {
					t.Errorf("%+v over a %v index: plan %+v", a.f, kind, ex)
				}
				got, want := c.Query(Query{Filter: a.f, Limit: NoLimit}), scan.Query(Query{Filter: a.f, Limit: NoLimit})
				if got.Total != want.Total || !slices.Equal(numbers(got.Docs), numbers(want.Docs)) {
					t.Errorf("%+v over %d values, %v index: %d matches %v, a scan finds %d %v",
						a.f, len(values), kind, got.Total, numbers(got.Docs), want.Total, numbers(want.Docs))
				}
			}
		}
	}
}

// TestDocPathMatchesSplitWalk compares Path with the strings.Split walk it
// replaced.
func TestDocPathMatchesSplitWalk(t *testing.T) {
	splitWalk := func(d *Doc, path string) (DocValue, bool) {
		cur := d
		parts := strings.Split(path, ".")
		for i, part := range parts {
			v, ok := field(cur, part)
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
	d := NewDoc(
		F("a", Nested(NewDoc(F("b", Nested(NewDoc(F("c", Num(1))))), F("", Str("empty name"))))),
		F("s", Str("scalar")),
		F("", Nested(NewDoc(F("x", Num(2))))))
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
	d := NewDoc(
		F("name", Str("The Walking Dead")),
		F("attributes", Nested(NewDoc(F("award_winning", Str("true"))))))
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
		c.EnsureIndex(IndexSpec{Name: "type_1", Path: "type", Kind: HashIndex})
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
// list costs the page, not the list, whichever kind of index holds it; so
// does a page of a text index's Contains over a token of 1 000 ids, whose
// candidates are each checked and none copied out. The needle has upper
// case: it is lowered into the query's pooled scratch, not a new string.
func TestPagedQueryAllocatesForThePage(t *testing.T) {
	for _, kind := range []IndexKind{HashIndex, BTreeIndex} {
		t.Run(kind.String(), func(t *testing.T) {
			c := NewCollection("dt.entity", 0)
			c.EnsureIndex(IndexSpec{Name: "type_1", Path: "type", Kind: kind})
			for i := 0; i < 10000; i++ {
				c.Insert(entityDoc("E", "Movie", 0))
			}
			pagedQueryAllocatesForThePage(t, c, Query{Filter: EqStr("type", "Movie"), Offset: 5000, Limit: 10}, 10000)
		})
	}
	t.Run("text", func(t *testing.T) {
		c := NewCollection("dt.instance", 0)
		c.EnsureIndex(IndexSpec{Path: "text", Kind: TextIndex})
		for i := 0; i < 1000; i++ {
			c.Insert(feedDoc(i, fmt.Sprintf("Fragment %d names Matilda, who grossed %d.", i, 1000+i%37)))
		}
		pagedQueryAllocatesForThePage(t, c, Query{Filter: Contains("text", "Matilda"), Offset: 500, Limit: 10}, 1000)
	})
}

func pagedQueryAllocatesForThePage(t *testing.T, c *Collection, q Query, matches int64) {
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
	if res.Total != matches || len(res.Docs) != 10 {
		t.Fatalf("page = %d docs of %d", len(res.Docs), res.Total)
	}
	if allocs > 1 || bytes > 1024 {
		t.Errorf("limit=10 over %d matches: %.0f allocs, %d B per query (budget: 1 alloc, the page)", matches, allocs, bytes)
	}
	q.Limit = 0
	if allocs, _ := perRun(50, q); allocs != 0 || res.Total != matches {
		t.Errorf("count-only over %d matches: %.0f allocs (budget 0), total %d", matches, allocs, res.Total)
	}
}
