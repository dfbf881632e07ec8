package dedup

import "repro/internal/record"

// AllPairsMembers is the reference RunKeyed's skip is checked against: the
// loop RunKeyed ran before it skipped joined pairs, scoring every candidate
// pair, and the members of the clusters it leaves.
func (d *Deduper) AllPairsMembers(records []*record.Record, keys [][]string) [][]int {
	uf := NewUnionFind(len(records))
	scores := d.Matcher.over(records)
	for p := range candidatePairs(keys, d.MaxBlock) {
		if scores.prob(p.I, p.J) >= d.Matcher.Threshold {
			uf.Union(p.I, p.J)
		}
	}
	return uf.Clusters()
}
