//go:build !race

// Allocation counts are taken without the race detector, as every
// allocation budget in this repository is: under it sync.Pool drops a
// quarter of what it is given.

package clean

import (
	"testing"

	"repro/internal/record"
)

// A record the pipeline's rules find nothing to rewrite in costs nothing to
// clean: every value is read, screened or compared in place. (A price that is
// a number still costs its rendering and a parse.)
func TestCleanRecordAllocatesNothing(t *testing.T) {
	c := &Cleaner{Rules: []Rule{
		{Attr: "CHEAPEST_PRICE", Transform: CurrencyConvert{From: "EUR", To: "USD", Rate: 1.30}},
		{Attr: "FIRST", Transform: DateTransform{}},
		{Attr: "THEATER", Transform: WhitespaceTransform{}},
		{Attr: "PERFORMANCE", Transform: WhitespaceTransform{}},
		{Attr: "NOTES", Transform: NullStandardize{}},
		{Attr: "DISCOUNT", Transform: NullStandardize{}},
	}}
	for _, price := range []record.Value{record.String("$27.00"), record.String("45 dollars"), record.String("£30")} {
		r := record.New()
		r.Set("SHOW_NAME", record.String("Matilda"))
		r.Set("CHEAPEST_PRICE", price)
		r.Set("FIRST", record.String("2013-03-04"))
		r.Set("THEATER", record.String("Shubert Theatre"))
		r.Set("PERFORMANCE", record.String("Tues at 7pm Wed at 8pm"))
		r.Set("NOTES", record.String("Winner of Best Musical"))
		r.Set("DISCOUNT", record.String("35% OFF"))
		var rep Report
		if n := testing.AllocsPerRun(100, func() { rep = c.Apply(r) }); n != 0 {
			t.Errorf("cleaning a clean record (price %v) allocates %v times, want 0", price, n)
		}
		if rep.Applied != 0 || rep.Errors != 0 || rep.ByRule != nil {
			t.Errorf("clean record reported %+v", rep)
		}
	}
}
