package fuse

import (
	"sort"

	"repro/internal/clean"
	"repro/internal/record"
)

// Additional fused-view queries: the "best price possible" side of the
// paper's demo narrative, run over the consolidated structured records.

// PricedShow is a show with its parsed cheapest price.
type PricedShow struct {
	Show  string
	Price float64
	// Raw is the original price rendering ("$27").
	Raw string
}

// CheapestShows ranks consolidated records by parsed CHEAPEST_PRICE
// ascending — "the best price possible" query. Records without a parseable
// price are skipped; k <= 0 returns all.
func CheapestShows(records []*record.Record, k int) []PricedShow {
	var out []PricedShow
	for _, r := range records {
		show := r.GetString("SHOW_NAME")
		if show == "" {
			continue
		}
		raw := r.GetString("CHEAPEST_PRICE")
		if raw == "" {
			continue
		}
		money, err := clean.ParseMoney(raw)
		if err != nil {
			continue
		}
		out = append(out, PricedShow{Show: show, Price: money.Amount, Raw: raw})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Price != out[j].Price {
			return out[i].Price < out[j].Price
		}
		return out[i].Show < out[j].Show
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// Coverage reports how many of the given attributes each record fills —
// the enrichment-completeness measure of the fused table.
type Coverage struct {
	Attr   string
	Filled int
	Total  int
}

// Fraction is Filled/Total (0 when empty).
func (c Coverage) Fraction() float64 {
	if c.Total == 0 {
		return 0
	}
	return float64(c.Filled) / float64(c.Total)
}

// AttributeCoverage measures per-attribute fill rates across records.
func AttributeCoverage(records []*record.Record, attrs []string) []Coverage {
	out := make([]Coverage, len(attrs))
	for i, attr := range attrs {
		out[i] = Coverage{Attr: attr, Total: len(records)}
		for _, r := range records {
			if v, ok := r.Get(attr); ok && !v.IsNull() && v.Str() != "" {
				out[i].Filled++
			}
		}
	}
	return out
}
