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
// what an unranked one-document page costs — four allocations, the text
// index's candidate lookup and the page — plus the kept hit and one to
// spare, whatever the number of matches and sentences scored. A ranking that copied the
// matches out, or split a text into a slice of sentences, would pay per
// match.
func TestRankedQueryAllocBudget(t *testing.T) {
	c := NewCollection("dt.instance", 0)
	c.EnsureTextIndex("text")
	for i := 0; i < 1000; i++ {
		c.Insert(feedDoc(i, fmt.Sprintf("Fragment %d names Matilda. Matilda grossed %d this week! The award-winning show runs on W. 44th St.", i, 1000+i%37)))
	}
	q := Query{Filter: Contains("text", "Matilda"), Limit: 1, Rank: feedRank("Matilda")}
	var res Result
	allocs := testing.AllocsPerRun(20, func() { res = c.Query(q) })
	if res.Total != 1000 || len(res.Docs) != 1 {
		t.Fatalf("ranked query: %d docs of %d", len(res.Docs), res.Total)
	}
	if allocs > 6 {
		t.Errorf("the best of 1 000 matches allocates %.0f times, budget 6", allocs)
	}
}

// TestInsertManyAllocBudget: a batch of 1 000 documents into an empty,
// unindexed collection costs three allocations — the returned ids and one
// growth of each of the collection's two slices — whatever the batch's
// length. Bookkeeping per document, such as a map entry, would pay per
// document; so would measuring a number's size by rendering it to a string,
// which the numbers variant pins.
func TestInsertManyAllocBudget(t *testing.T) {
	strs := make([]*Doc, 1000)
	nums := make([]*Doc, 1000)
	for i := range strs {
		strs[i] = NewDoc().Set("name", Str(fmt.Sprintf("Show %d", i))).Set("type", Str("Movie"))
		nums[i] = NewDoc().Set("name", Str(fmt.Sprintf("Show %d", i))).
			Set("seats", Num(int64(1000+i))).Set("stars", Scalar(record.Float(float64(i)/7)))
	}
	for _, c := range []struct {
		name string
		docs []*Doc
	}{{"strings", strs}, {"numbers", nums}} {
		const runs = 20
		colls := make([]*Collection, runs+1) // AllocsPerRun runs once more to warm up
		for i := range colls {
			colls[i] = NewCollection("dt.instance", 0)
		}
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			colls[next].InsertMany(c.docs)
			next++
		})
		if n := colls[runs].Count(); n != 1000 {
			t.Fatalf("%s: the last collection holds %d documents", c.name, n)
		}
		if allocs > 3 {
			t.Errorf("%s: inserting 1 000 documents allocates %.0f times, budget 3", c.name, allocs)
		}
	}
}

// TestDocListCheckAllocatesNothing: reading a list of 100 documents of
// every value kind with an empty window checks each of them and builds
// none, so it allocates nothing beyond its reader; a window of ten builds
// those ten only.
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
	t.Logf("checking 100 documents allocates %.0f times, building 10 %.0f, building all %.0f", check, page, whole)
	if check > 1 || page-check > (whole-check)/5 {
		t.Errorf("checking 100 documents allocates %.0f times (budget 1), building 10 of them %.0f, all %.0f", check, page, whole)
	}
}
