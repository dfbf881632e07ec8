//go:build !race

// The race detector makes sync.Pool drop a quarter of what it is given, and
// fmt keeps its printers in one, so an allocation count means nothing under
// it.

package match

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/record"
	"repro/internal/schema"
)

// Matching a source against a global schema whose attributes are profiled
// costs the report, its match list and one suggestion slice per source
// attribute: nothing per (source attribute, global attribute) pair.
func TestMatchSourceAllocBudget(t *testing.T) {
	e, g := NewEngine(), schema.NewGlobal()
	for _, src := range datagen.GenerateFTables(datagen.FTablesConfig{Sources: 20, Seed: 1}) {
		rep := e.MatchSource(schema.FromSource(src), g)
		review, err := e.Integrate(rep, g)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range review {
			g.AddAttribute(m.Attr, src.Name)
		}
	}
	ss := &schema.SourceSchema{Source: "ft1", Attrs: []*schema.Attribute{
		attr("Show Name", record.KindString, "Matilda", "Wicked"),
		attr("Venue", record.KindString, "Shubert Theatre", "Gershwin Theatre"),
		attr("Ticket Price", record.KindString, "$27", "$45"),
		attr("Telephone", record.KindString, "(212) 239-6200"),
	}}
	rep := e.MatchSource(ss, g) // derives the source attributes' profiles and signatures
	if len(rep.Alerts) != 0 {
		t.Fatalf("alerts %q: the budget counts no alert", rep.Alerts)
	}
	budget := float64(2 + len(ss.Attrs))
	if n := testing.AllocsPerRun(20, func() { e.MatchSource(ss, g) }); n > budget {
		t.Errorf("MatchSource of %d attributes against %d allocates %v times, budget %v", len(ss.Attrs), g.Len(), n, budget)
	}
}
