package core

import (
	"cmp"
	"slices"
	"sync"

	"repro/internal/fuse"
	"repro/internal/record"
	"repro/internal/textutil"
)

// member is one structured record the fused view is consolidated from:
// translated onto the global schema and cleaned, with its blocking keys,
// computed once, and its position in the order a batch pass reads the
// registry — its source's first-arrival rank in the high 32 bits, its
// arrival index within the source in the low ones.
type member struct {
	rec  *record.Record
	keys []string // fusedBlocker(rec)
	pos  int
}

func byPosition(a, b member) int { return cmp.Compare(a.pos, b.pos) }

// fusedCluster is one consolidated entity: its members in position order
// and the record they consolidate to, with that record's SHOW_NAME.
type fusedCluster struct {
	members []member
	record  *record.Record
	show    string
}

// sharesKey reports whether a member of c has one of keys.
func (c *fusedCluster) sharesKey(keys map[string]bool) bool {
	for _, m := range c.members {
		for _, k := range m.keys {
			if keys[k] {
				return true
			}
		}
	}
	return false
}

// fusedView is an immutable snapshot of the consolidated fused table. Each
// refresh builds a whole new view and installs it atomically under t.mu, so
// readers either see the previous complete view or the next one — never a
// half-built state. Alongside the sorted clusters and their records the view
// carries a normalized-SHOW_NAME hash index (built eagerly: every fused query
// needs it) and the serve-time aggregates (cheapest ranking, attribute
// coverage), computed lazily on first use and cached for the view's
// lifetime. Because caches live on the view, installing a new view is also
// the cache invalidation — a stale aggregate cannot outlive the records it
// was computed from.
type fusedView struct {
	clusters []fusedCluster   // by SHOW_NAME, then by first member's position
	records  []*record.Record // the clusters' records, in the same order
	// byShow holds the records by textutil.Normalize(SHOW_NAME), each key's
	// in view order.
	byShow map[string][]*record.Record

	cheapOnce sync.Once
	cheapAll  []fuse.PricedShow // full ranking; Cheapest slices per k

	covOnce  sync.Once
	coverage []fuse.Coverage // for the Table VI reporting attributes
}

// newFusedView sorts clusters in place and builds the snapshot over them.
// The caller must not retain or mutate clusters afterwards.
func newFusedView(clusters []fusedCluster) *fusedView {
	slices.SortFunc(clusters, func(a, b fusedCluster) int {
		if c := cmp.Compare(a.show, b.show); c != 0 {
			return c
		}
		return byPosition(a.members[0], b.members[0])
	})
	v := &fusedView{
		clusters: clusters,
		records:  make([]*record.Record, len(clusters)),
		byShow:   make(map[string][]*record.Record, len(clusters)),
	}
	for i, c := range clusters {
		v.records[i] = c.record
		key := textutil.Normalize(c.show)
		v.byShow[key] = append(v.byShow[key], c.record)
	}
	return v
}

// lookup returns the consolidated records whose SHOW_NAME normalizes like
// show's, in view order.
func (v *fusedView) lookup(show string) []*record.Record {
	return v.byShow[textutil.Normalize(show)]
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
