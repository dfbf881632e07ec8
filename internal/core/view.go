package core

import (
	"sync"

	"repro/internal/fuse"
	"repro/internal/record"
)

// fusedView is an immutable snapshot of the consolidated fused table. Each
// refresh builds a whole new view and installs it atomically under t.mu, so
// readers either see the previous complete view or the next one — never a
// half-built state. Alongside the sorted records the view carries a
// normalized-SHOW_NAME hash index (built eagerly: every fused query needs
// it) and the serve-time aggregates (cheapest ranking, attribute coverage),
// computed lazily on first use and cached for the view's lifetime. Because
// caches live on the view, installing a new view is also the cache
// invalidation — a stale aggregate cannot outlive the records it was
// computed from.
type fusedView struct {
	records []*record.Record // sorted by SHOW_NAME
	byShow  *fuse.ShowIndex

	cheapOnce sync.Once
	cheapAll  []fuse.PricedShow // full ranking; Cheapest slices per k

	covOnce  sync.Once
	coverage []fuse.Coverage // for the Table VI reporting attributes
}

// newFusedView sorts recs in place and builds the snapshot over them. The
// caller must not retain or mutate recs afterwards.
func newFusedView(recs []*record.Record) *fusedView {
	sortFused(recs)
	return &fusedView{
		records: recs,
		byShow:  fuse.NewShowIndex(recs, "SHOW_NAME"),
	}
}

// lookup returns the consolidated records for the show via the hash index.
func (v *fusedView) lookup(show string) []*record.Record {
	return v.byShow.Lookup(show)
}

// cheapest returns the k cheapest shows (k <= 0: all), computing the full
// ranking once per view. The returned slice is a copy, so callers cannot
// poison the cache.
func (v *fusedView) cheapest(k int) []fuse.PricedShow {
	v.cheapOnce.Do(func() {
		v.cheapAll = fuse.CheapestShows(v.records, 0)
	})
	rows := v.cheapAll
	if k > 0 && len(rows) > k {
		rows = rows[:k]
	}
	return append([]fuse.PricedShow(nil), rows...)
}

// coverageRows returns the per-attribute fill rates for the Table VI
// reporting attributes, computed once per view.
func (v *fusedView) coverageRows() []fuse.Coverage {
	v.covOnce.Do(func() {
		v.coverage = fuse.AttributeCoverage(v.records, fuse.TableVIOrder[:3])
	})
	return append([]fuse.Coverage(nil), v.coverage...)
}
