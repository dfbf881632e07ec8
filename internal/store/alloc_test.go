//go:build !race

// The race detector adds allocations of its own, so an allocation count
// means nothing under it.

package store

import (
	"fmt"
	"testing"

	"repro/internal/record"
)

// TestRankedQueryAllocBudget: the best of 1 000 matching fragments costs
// what an unranked one-document page costs — one allocation, the page; the
// needle is lowered once, into the query's pooled scratch — plus the kept
// hit and two to spare (2 measured; 4 while the plan and the lookup each
// lowered the needle into a new string, 5 while the lookup also split it
// into a slice of terms), whatever the number of matches and sentences
// scored. A ranking that copied the matches out, or split a text into a
// slice of sentences, would pay per match.
func TestRankedQueryAllocBudget(t *testing.T) {
	c := NewCollection("dt.instance", 0)
	c.EnsureIndex(IndexSpec{Path: "text", Kind: TextIndex})
	for i := 0; i < 1000; i++ {
		c.Insert(feedDoc(i, fmt.Sprintf("Fragment %d names Matilda. Matilda grossed %d this week! The award-winning show runs on W. 44th St.", i, 1000+i%37)))
	}
	q := Query{Filter: Contains("text", "Matilda"), Limit: 1, Rank: feedRank("Matilda")}
	var res Result
	allocs := testing.AllocsPerRun(20, func() { res = c.Query(q) })
	if res.Total != 1000 || len(res.Docs) != 1 {
		t.Fatalf("ranked query: %d docs of %d", len(res.Docs), res.Total)
	}
	t.Logf("the best of 1 000 matches allocates %.0f times", allocs)
	if allocs > 4 {
		t.Errorf("the best of 1 000 matches allocates %.0f times, budget 4", allocs)
	}
}

// TestInsertManyAllocBudget: a batch of 1 000 documents into an empty,
// unindexed collection costs three allocations — the returned ids and one
// growth of each of the collection's two slices — whatever the batch's
// length. Bookkeeping per document, such as a map entry, would pay per
// document; so would measuring a number's size by rendering it to a string,
// which the numbers variant pins. Into a collection holding dt.entity's
// eight indexes, the batch pays for the indexes' growth — map tables, B-tree
// nodes, the posting lists of its 165 keys, and the one resolver of their
// paths — and not per document: every document is walked once for all
// eight paths, in scratch the collection keeps. 489 allocations are
// measured (972 while posting lists were []int64); one more a document
// would be 1 000 more.
func TestInsertManyAllocBudget(t *testing.T) {
	strs := make([]*Doc, 1000)
	nums := make([]*Doc, 1000)
	entities := make([]*Doc, 1000)
	for i := range strs {
		strs[i] = NewDoc(F("name", Str(fmt.Sprintf("Show %d", i))), F("type", Str("Movie")))
		nums[i] = NewDoc(
			F("name", Str(fmt.Sprintf("Show %d", i))),
			F("seats", Num(int64(1000+i))),
			F("stars", Scalar(record.Float(float64(i)/7))))
		entities[i] = NewDoc(
			F("type", Str([]string{"Movie", "Person", "Company"}[i%3])),
			F("name", Str(fmt.Sprintf("Show %d", i%100))),
			F("source_url", Str(fmt.Sprintf("http://s%d.example.com", i%20))),
			F("attributes", Nested(NewDoc(
				F("price", Str(fmt.Sprintf("$%d", i%40))),
				F("schedule", Str("Tues at 7pm")),
				F("award_winning", Str("true"))))))
	}
	entityIndexes := func(c *Collection) {
		c.EnsureIndex(IndexSpec{Name: "name_1", Path: "name", Kind: BTreeIndex})
		for _, path := range []string{"type", "source_url", "attributes.price", "attributes.gross", "attributes.date", "attributes.schedule", "attributes.award_winning"} {
			c.EnsureIndex(IndexSpec{Name: path + "_1", Path: path, Kind: HashIndex})
		}
	}
	for _, c := range []struct {
		name    string
		docs    []*Doc
		indexes func(*Collection)
		budget  float64
	}{
		{"strings", strs, nil, 3},
		{"numbers", nums, nil, 3},
		{"entity indexes", entities, entityIndexes, 500},
	} {
		const runs = 20
		colls := make([]*Collection, runs+1) // AllocsPerRun runs once more to warm up
		for i := range colls {
			colls[i] = NewCollection("dt.instance", 0)
			if c.indexes != nil {
				c.indexes(colls[i])
			}
		}
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			colls[next].InsertMany(c.docs)
			next++
		})
		if n := colls[runs].Count(); n != 1000 {
			t.Fatalf("%s: the last collection holds %d documents", c.name, n)
		}
		t.Logf("%s: inserting 1 000 documents allocates %.0f times", c.name, allocs)
		if allocs > c.budget {
			t.Errorf("%s: inserting 1 000 documents allocates %.0f times, budget %.0f", c.name, allocs, c.budget)
		}
	}
}

// TestDocListCheckAllocatesNothing: reading a list of 100 documents of
// every value kind with an empty window checks each of them and adopts
// none, so it allocates nothing beyond its reader; a window adopts its
// documents in one copy of their bytes and one allocation of documents,
// whether it holds ten or all of them (and all of them into a nil slice
// grow it once).
func TestDocListCheckAllocatesNothing(t *testing.T) {
	var docs []*Doc
	for len(docs) < 100 {
		docs = append(docs, listDocs()...)
	}
	list, err := ReadDocList(encodeDocList(docs))
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]*Doc, 0, 10)
	check := testing.AllocsPerRun(50, func() {
		if _, err := list.AppendWindow(dst, 0, 0); err != nil {
			t.Fatal(err)
		}
	})
	page := testing.AllocsPerRun(50, func() {
		if _, err := list.AppendWindow(dst, 40, 50); err != nil {
			t.Fatal(err)
		}
	})
	whole := testing.AllocsPerRun(50, func() {
		if _, err := list.AppendWindow(nil, 0, 100); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("checking 100 documents allocates %.0f times, adopting 10 %.0f, adopting all %.0f", check, page, whole)
	if check > 1 || page-check > 2 || whole-check > 3 {
		t.Errorf("checking 100 documents allocates %.0f times (budget 1), adopting 10 of them %.0f (budget 2 more), all %.0f (budget 3 more)", check, page, whole)
	}
}

// TestStoredEntityReadsAllocateNothing: reading every field of a stored
// entity document, as the text load writes one — each top-level field by
// Field, Get and PathString, each attribute by Path, and its size — allocates
// nothing: a string aliases the document's bytes, and the nested
// attributes are handed out as theirs.
func TestStoredEntityReadsAllocateNothing(t *testing.T) {
	buf := AppendDocHead(nil, 4)
	buf = AppendStrField(buf, "type", "Movie")
	buf = AppendStrField(buf, "name", "Matilda")
	buf = AppendStrField(buf, "source_url", "http://matildathemusical.example.com")
	buf = AppendDocField(buf, "attributes", 3)
	buf = AppendStrField(buf, "award_winning", "true")
	buf = AppendStrField(buf, "price", "$27")
	buf = AppendStrField(buf, "schedule", "Tues at 7pm")
	d, err := AdoptDoc(buf)
	if err != nil {
		t.Fatal(err)
	}
	paths := []string{"type", "name", "source_url", "attributes", "attributes.award_winning", "attributes.price", "attributes.schedule"}
	read := 0
	allocs := testing.AllocsPerRun(100, func() {
		read = 0
		for i := 0; i < d.Len(); i++ {
			name, v := d.Field(i)
			got, _ := d.Path(name)
			read += len(v.Scalar().Str()) + len(got.Scalar().Str()) + len(d.PathString(name))
		}
		for _, p := range paths {
			if v, ok := d.Path(p); ok {
				read += len(v.Scalar().Str()) + int(d.SizeBytesOf([]string{p}))
			}
		}
		read += int(d.SizeBytes())
	})
	if read == 0 {
		t.Fatal("nothing was read")
	}
	if allocs != 0 {
		t.Errorf("reading every field of a stored entity document allocates %.0f times, want 0", allocs)
	}
}
