//go:build !race

// The race detector adds allocations of its own, so an allocation count
// means nothing under it.

package store

import (
	"fmt"
	"testing"
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
