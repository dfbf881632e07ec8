package fuse

import (
	"testing"

	"repro/internal/record"
)

func showRec(show, theater, price string) *record.Record {
	r := record.New()
	r.Set("SHOW_NAME", record.String(show))
	if theater != "" {
		r.Set("THEATER", record.String(theater))
	}
	if price != "" {
		r.Set("CHEAPEST_PRICE", record.String(price))
	}
	return r
}

func TestCheapestShows(t *testing.T) {
	records := []*record.Record{
		showRec("Matilda", "Shubert", "$27"),
		showRec("Wicked", "Gershwin", "$89"),
		showRec("Once", "Booth", "$45"),
		showRec("Pricy", "Palace", "not a price"),
		showRec("NoPrice", "Lyceum", ""),
	}
	top := CheapestShows(records, 2)
	if len(top) != 2 {
		t.Fatalf("top = %+v", top)
	}
	if top[0].Show != "Matilda" || top[0].Price != 27 {
		t.Errorf("cheapest = %+v", top[0])
	}
	if top[1].Show != "Once" {
		t.Errorf("second = %+v", top[1])
	}
	all := CheapestShows(records, 0)
	if len(all) != 3 {
		t.Errorf("parseable shows = %d", len(all))
	}
}

func TestCheapestShowsTieBreak(t *testing.T) {
	records := []*record.Record{
		showRec("B Show", "x", "$50"),
		showRec("A Show", "y", "$50"),
	}
	top := CheapestShows(records, 0)
	if top[0].Show != "A Show" {
		t.Errorf("tie break = %+v", top)
	}
}

func TestAttributeCoverage(t *testing.T) {
	records := []*record.Record{
		showRec("A", "T1", "$10"),
		showRec("B", "", "$20"),
		showRec("C", "T3", ""),
	}
	cov := AttributeCoverage(records, []string{"SHOW_NAME", "THEATER", "CHEAPEST_PRICE", "MISSING"})
	byAttr := map[string]Coverage{}
	for _, c := range cov {
		byAttr[c.Attr] = c
	}
	if byAttr["SHOW_NAME"].Filled != 3 {
		t.Errorf("show coverage = %+v", byAttr["SHOW_NAME"])
	}
	if byAttr["THEATER"].Filled != 2 || byAttr["CHEAPEST_PRICE"].Filled != 2 {
		t.Errorf("partial coverage = %+v", cov)
	}
	if byAttr["MISSING"].Filled != 0 || byAttr["MISSING"].Fraction() != 0 {
		t.Errorf("missing coverage = %+v", byAttr["MISSING"])
	}
	if f := byAttr["THEATER"].Fraction(); f < 0.66 || f > 0.67 {
		t.Errorf("fraction = %f", f)
	}
	if (Coverage{}).Fraction() != 0 {
		t.Error("zero coverage fraction")
	}
}
