//go:build !race

// The race detector adds allocations of its own, so an allocation count
// means nothing under it.

package fuse

import (
	"fmt"
	"testing"

	"repro/internal/record"
)

// TestEnrichAllocBudget: enriching a web-text record with a 22-field
// structured record sizes the copy for both once, so it costs the record
// and its field slice, and one more for the joined provenance when the
// structured record names a source; a copy grown field by field would
// reallocate as it filled.
func TestEnrichAllocBudget(t *testing.T) {
	web := record.New()
	web.Source = "webinstance"
	web.Set("SHOW_NAME", record.String("Matilda"))
	web.Set("TEXT_FEED", record.String("grossed 960,998, or 93 percent of the maximum"))
	structured := record.New()
	structured.Set("SHOW_NAME", record.String("Matilda"))
	for i := range 21 {
		structured.Set(fmt.Sprintf("ATTRIBUTE_%02d", i), record.String(fmt.Sprintf("value %d", i)))
	}
	for _, c := range []struct {
		source string
		budget float64
	}{{"", 2}, {"ft00", 3}} {
		structured.Source = c.source
		var out *record.Record
		n := testing.AllocsPerRun(100, func() { out = Enrich(web, structured) })
		if out.Len() != 23 {
			t.Fatalf("enriched record holds %d fields, want 23", out.Len())
		}
		if n > c.budget {
			t.Errorf("structured source %q: Enrich allocates %.0f times, budget %.0f", c.source, n, c.budget)
		}
	}
}
