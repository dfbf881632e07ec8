package store

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/record"
)

func entityDoc(name, typ string, mentions int64) *Doc {
	return NewDoc(
		F("name", Str(name)),
		F("type", Str(typ)),
		F("mentions", Num(mentions)))
}

// Tests read a collection through its one read op, Query, or its fields.

// find is every document matching f.
func find(c *Collection, f Filter) []*Doc { return c.Query(Query{Filter: f, Limit: NoLimit}).Docs }

// count is how many documents match f.
func count(c *Collection, f Filter) int64 { return c.Query(Query{Filter: f}).Total }

// explain is the plan Query uses for f.
func explain(c *Collection, f Filter) Explain { return c.Query(Query{Filter: f, Explain: true}).Plan }

// get is the document stored under id.
func get(c *Collection, id int64) (*Doc, bool) {
	if i, ok := c.find(id); ok {
		return c.docAt(i), true
	}
	return nil, false
}

// members are the ids and their documents in id order.
func members(c *Collection) (ids []int64, docs []*Doc) {
	for id, d := range c.from(0) {
		ids, docs = append(ids, id), append(docs, d)
	}
	return ids, docs
}

func TestInsertGet(t *testing.T) {
	c := NewCollection("dt.entity", 0)
	id := c.Insert(entityDoc("Matilda", "Movie", 10))
	if d, ok := get(c, id); !ok || d.PathString("name") != "Matilda" {
		t.Fatalf("Get(%d) = %v, %v", id, d, ok)
	}
	for _, absent := range []int64{0, id + 1} {
		if d, ok := get(c, absent); ok {
			t.Errorf("Get(%d) = %v of a collection holding only id %d", absent, d, id)
		}
	}
}

// TestReplayBelowHighestRefused: a replayed id that is not above every id
// held — a held one, one in a gap a replay jumped, zero or negative — is
// refused and changes nothing, so a scan and an index still list the
// documents in one order; a replay above the highest applies.
func TestReplayBelowHighestRefused(t *testing.T) {
	doc := func(n int64) *Doc { return NewDoc(F("k", Str("x")), F("n", Num(n))) }
	c := NewCollection("dt.x", 0)
	c.EnsureIndex(IndexSpec{Name: "k_1", Path: "k", Kind: HashIndex})
	for n := int64(1); n <= 2; n++ {
		c.Insert(doc(n))
	}
	for n := int64(4); n <= 6; n++ {
		if err := c.ApplyReplay(n, doc(n)); err != nil {
			t.Fatalf("replaying id %d above the highest: %v", n, err)
		}
	}
	for _, id := range []int64{3, 5, 6, 0, -1} {
		if err := c.ApplyReplay(id, doc(10*id)); err == nil {
			t.Errorf("replaying id %d, not above the highest held, was accepted", id)
		}
	}
	if err := c.ApplyReplay(9, doc(9)); err != nil {
		t.Errorf("replaying id 9 above the highest: %v", err)
	}
	if id := c.Insert(doc(10)); id != 10 {
		t.Errorf("the insert after replaying id 9 got id %d", id)
	}
	numbers := func(docs []*Doc) string {
		var out []string
		for _, d := range docs {
			out = append(out, d.PathString("n"))
		}
		return strings.Join(out, " ")
	}
	if ex := explain(c, EqStr("k", "x")); ex.IndexName != "k_1" {
		t.Fatalf("plan %+v, want the hash index", ex)
	}
	scan, indexed := numbers(find(c, Exists("k"))), numbers(find(c, EqStr("k", "x")))
	if want := "1 2 4 5 6 9 10"; scan != want || indexed != want {
		t.Errorf("scan lists %q, the index %q, want %q for both", scan, indexed, want)
	}
}

func TestFindFullScanAndFilters(t *testing.T) {
	c := NewCollection("dt.entity", 0)
	c.Insert(entityDoc("Matilda", "Movie", 30))
	c.Insert(entityDoc("Wicked", "Movie", 20))
	c.Insert(entityDoc("IBM", "Company", 50))

	if got := len(find(c, EqStr("type", "Movie"))); got != 2 {
		t.Errorf("Eq movie count = %d", got)
	}
	if got := len(find(c, Contains("name", "ick"))); got != 1 {
		t.Errorf("Contains = %d", got)
	}
	if got := len(find(c, And{EqStr("type", "Movie"), Cond{Path: "mentions", Op: OpGt, Value: record.Int(25)}})); got != 1 {
		t.Errorf("And = %d", got)
	}
	if got := len(find(c, Or{EqStr("name", "IBM"), EqStr("name", "Wicked")})); got != 2 {
		t.Errorf("Or = %d", got)
	}
	if got := len(find(c, Not{EqStr("type", "Movie")})); got != 1 {
		t.Errorf("Not = %d", got)
	}
	if got := len(find(c, All{})); got != 3 {
		t.Errorf("All = %d", got)
	}
	if got := len(find(c, nil)); got != 3 {
		t.Errorf("nil filter = %d", got)
	}
	if got := len(find(c, Exists("mentions"))); got != 3 {
		t.Errorf("Exists = %d", got)
	}
	if got := len(find(c, Cond{Path: "name", Op: OpIn, Set: []record.Value{record.String("IBM"), record.String("Nope")}})); got != 1 {
		t.Errorf("In = %d", got)
	}
	if got := len(find(c, And{Cond{Path: "mentions", Op: OpGe, Value: record.Int(20)}, Cond{Path: "mentions", Op: OpLt, Value: record.Int(50)}})); got != 2 {
		t.Errorf("Range = %d", got)
	}
}

func TestIndexedLookupMatchesScan(t *testing.T) {
	build := func() *Collection {
		c := NewCollection("dt.entity", 0)
		for i := 0; i < 200; i++ {
			c.Insert(entityDoc(fmt.Sprintf("E%03d", i%50), fmt.Sprintf("T%d", i%5), int64(i)))
		}
		return c
	}
	// A point lookup finds the same four documents by scan, by hash index
	// and by B-tree index.
	for _, kind := range []IndexKind{HashIndex, BTreeIndex} {
		c := build()
		scan := find(c, EqStr("name", "E007"))
		c.EnsureIndex(IndexSpec{Name: "name_1", Path: "name", Kind: kind})
		if ex := explain(c, EqStr("name", "E007")); ex.IndexKind != kind.String() {
			t.Fatalf("plan with a %s index = %+v", kind, ex)
		}
		indexed := find(c, EqStr("name", "E007"))
		if len(scan) != 4 || !slices.Equal(scan, indexed) {
			t.Fatalf("scan found %d docs, the %s index %d, or in another order", len(scan), kind, len(indexed))
		}
	}
	// And-filter should also use the index then refine.
	c := build()
	c.EnsureIndex(IndexSpec{Name: "name_1", Path: "name", Kind: HashIndex})
	and := And{EqStr("name", "E007"), EqStr("type", "T2")}
	want := 0
	for _, d := range find(c, All{}) {
		if and.Matches(d) {
			want++
		}
	}
	if got := len(find(c, and)); got != want {
		t.Errorf("And indexed = %d, want %d", got, want)
	}
}

func TestBTreeIndexPrefixAndList(t *testing.T) {
	c := NewCollection("dt.entity", 0)
	c.EnsureIndex(IndexSpec{Name: "name_btree", Path: "name", Kind: BTreeIndex})
	c.Insert(entityDoc("The Walking Dead", "Movie", 1))
	c.Insert(entityDoc("The Wolverine", "Movie", 2))
	c.Insert(entityDoc("Goodfellas", "Movie", 3))
	if docs := find(c, Cond{Path: "name", Op: OpPrefix, Value: record.String("The ")}); len(docs) != 2 {
		t.Errorf("prefix docs = %v", docs)
	}

	// Index over list elements.
	c2 := NewCollection("dt.tagged", 0)
	c2.EnsureIndex(IndexSpec{Name: "tags_1", Path: "tags", Kind: HashIndex})
	c2.Insert(NewDoc(F("tags", List(Str("a"), Str("b")))))
	c2.Insert(NewDoc(F("tags", List(Str("b")))))
	if got := len(find(c2, EqStr("tags", "b"))); got != 2 {
		t.Errorf("list index lookup = %d", got)
	}
	if got := len(find(c2, EqStr("tags", "a"))); got != 1 {
		t.Errorf("list index lookup a = %d", got)
	}
}

func TestExtentAccounting(t *testing.T) {
	c := NewCollection("dt.x", 1024) // 1 KB extents force growth
	for i := 0; i < 100; i++ {
		c.Insert(entityDoc(fmt.Sprintf("name-%04d with some padding text", i), "Movie", int64(i)))
	}
	st := c.Stats()
	if st.NumExtents < 2 {
		t.Errorf("expected multiple extents, got %d", st.NumExtents)
	}
	if st.LastExtentSize <= 0 || st.LastExtentSize > 1024 {
		t.Errorf("lastExtentSize = %d", st.LastExtentSize)
	}
	if st.Count != 100 {
		t.Errorf("count = %d", st.Count)
	}
	if st.AvgObjSize <= 0 {
		t.Errorf("avgObjSize = %d", st.AvgObjSize)
	}
}

func TestStatsShellFormat(t *testing.T) {
	c := NewCollection("dt.instance", 0)
	c.Insert(entityDoc("a", "b", 1))
	out := c.Stats().FormatShell()
	for _, want := range []string{`> db.instance.stats();`, `"ns" : "dt.instance"`, `"count" : 1`, `"numExtents"`, `"nindexes"`, `"lastExtentSize"`, `"totalIndexSize"`} {
		if !contains(out, want) {
			t.Errorf("FormatShell missing %q in:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestDistinct(t *testing.T) {
	c := NewCollection("dt.entity", 0)
	c.Insert(entityDoc("A", "Movie", 1))
	c.Insert(entityDoc("B", "Movie", 1))
	c.Insert(entityDoc("C", "Person", 1))
	groups := c.Query(Query{GroupBy: "type"}).Groups
	if want := []Group{{"Movie", 2}, {"Person", 1}}; !slices.Equal(groups, want) {
		t.Errorf("group count by type = %v, want %v", groups, want)
	}
}

func TestConcurrentInsertAndRead(t *testing.T) {
	c := NewCollection("dt.entity", 0)
	c.EnsureIndex(IndexSpec{Name: "name_1", Path: "name", Kind: HashIndex})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.Insert(entityDoc(fmt.Sprintf("w%d-%d", w, i), "Movie", int64(i)))
				find(c, EqStr("type", "Movie"))
			}
		}(w)
	}
	wg.Wait()
	if c.Count() != 800 {
		t.Errorf("count = %d, want 800", c.Count())
	}
}

func TestShardedRoutingAndStats(t *testing.T) {
	s := NewSharded("dt.entity", "name", 4, 4096)
	for i := 0; i < 400; i++ {
		s.Insert(entityDoc(fmt.Sprintf("entity-%04d", i), "Person", int64(i)))
	}
	// Hash routing should spread docs across all shards.
	for i := 0; i < s.NumShards(); i++ {
		if s.Shard(i).Count() == 0 {
			t.Errorf("shard %d empty", i)
		}
	}
	s.EnsureIndex("name_1", "name", HashIndex)
	ctx := context.Background()
	got, err := s.FindCtx(ctx, EqStr("name", "entity-0123"))
	if err != nil || len(got) != 1 {
		t.Fatalf("sharded find = %d docs, %v", len(got), err)
	}
	st := s.Stats()
	if st.Count != 400 || st.NS != "dt.entity" {
		t.Errorf("merged stats = %+v", st)
	}
	if st.NIndexes != 1 {
		t.Errorf("merged nindexes = %d", st.NIndexes)
	}
	if st.NumExtents < s.NumShards() {
		t.Errorf("numExtents = %d", st.NumExtents)
	}
	counts, err := s.DistinctCtx(ctx, "type")
	if err != nil || counts["Person"] != 400 {
		t.Errorf("sharded distinct = %v, %v", counts, err)
	}
}

// TestIndexPathsMatchDocPath: the one walk that resolves every indexed path
// of a document being added finds at each path what Doc.Path finds there —
// empty segments, a path through a scalar or a list, two paths sharing a
// prefix and one ending where another goes on — and nothing (a null) where
// Doc.Path finds nothing.
func TestIndexPathsMatchDocPath(t *testing.T) {
	paths := []string{"", ".", "a", "a.", "a.b", "a.b.c", "a.b.c.d", "a..b", ".x", "..", "s", "s.t", "l", "l.x", "missing", "a.missing", "a.b."}
	docs := []*Doc{
		NewDoc(),
		NewDoc(
			F("a", Nested(NewDoc(F("b", Nested(NewDoc(F("c", Num(1))))), F("", Str("empty name"))))),
			F("s", Str("scalar")),
			F("l", List(Str("x"), Nested(NewDoc(F("x", Num(3)))))),
			F("", Nested(NewDoc(F("x", Num(2)))))),
		NewDoc(F("s", Num(7)), F("a", Str("not a document"))),
		NewDoc(F("", Str("top")), F("a", Nested(NewDoc(F("b", List(Num(1), Num(2))))))),
	}
	c := NewCollection("dt.x", 0)
	for i, path := range paths {
		c.EnsureIndex(IndexSpec{Name: fmt.Sprint(i), Path: path, Kind: HashIndex})
	}
	c.EnsureIndex(IndexSpec{Path: "s", Kind: TextIndex})
	c.paths.build(c)
	for _, d := range docs {
		c.paths.resolve(d)
		for _, ix := range c.indexes {
			want, _ := d.Path(ix.Path)
			if got := c.paths.vals[ix.slot]; got != want {
				t.Errorf("%v at %q: the walk finds %v, Doc.Path %v", d, ix.Path, got, want)
			}
		}
		if got, want := c.paths.vals[c.text["s"].slot], c.paths.vals[c.indexes["10"].slot]; got != want {
			t.Errorf("%v: the text index's path resolves to %v, the index's on the same path to %v", d, got, want)
		}
	}
}
