package dedup

import "repro/internal/record"

// AllPairsMembers is the reference RunKeyed is checked against: every
// candidate pair of records scored, with no grouping, no prior clusters and
// no skip of joined pairs, and the members of the clusters it leaves, by
// smallest member.
//
//lint:dtlint-allow deadcheck TestConsolidationScalesInSources, FuzzRunKeyedMatchesAllPairs and core's TestFusedViewMatchesBatchOracle: reference
func (d *Deduper) AllPairsMembers(records []*record.Record, keys [][]string) [][]int {
	uf := NewUnionFind(len(records))
	scores := d.Matcher.over(records)
	for p := range candidatePairs(keys, nil, d.MaxBlock, nil) {
		if scores.prob(p.I, p.J) >= d.Matcher.Threshold {
			uf.Union(p.I, p.J)
		}
	}
	return uf.Clusters()
}
