//go:build !race

// The race detector makes sync.Pool drop a quarter of what it is given, so
// an allocation count means nothing under it.

package extract

import "testing"

// A 220-byte fragment with eight entities and every attribute costs the
// Result, its mentions, its entities and their shared attribute list.
func TestParseAllocBudget(t *testing.T) {
	const text = "Matilda, Tony Awards Committee pick, opened at Shubert Theatre in New York " +
		"with Tim Minchin and Roald Dahl for the Broadway League: tickets $27, 93 percent sold, " +
		"grossed 960,998 by 3/4/2013, Tues at 7pm; www.matildas.com"
	p := NewParser()
	res := p.Parse(text)
	if len(text) != 220 || len(res.Entities) != 8 || len(res.Entities[0].Attributes) != 6 {
		t.Fatalf("fixture drifted: %d bytes, %d entities, %d attributes on the first",
			len(text), len(res.Entities), len(res.Entities[0].Attributes))
	}
	n := testing.AllocsPerRun(200, func() { res = p.Parse(text) })
	t.Logf("Parse allocates %.1f times", n)
	if n > 8 {
		t.Errorf("Parse allocates %.1f times, budget 8", n)
	}
}
