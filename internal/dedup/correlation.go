package dedup

import (
	"sort"

	"repro/internal/record"
)

// Correlation clustering: an alternative to transitive closure. Transitive
// closure (union-find over matched pairs) can chain A~B~C into one cluster
// even when A and C look nothing alike; correlation clustering only admits
// a record into a cluster when its average match probability against the
// cluster's members clears the threshold, trading recall for precision.

// CorrelationDeduper runs blocking + classification like Deduper but
// clusters greedily by average linkage instead of transitive closure.
type CorrelationDeduper struct {
	Blocker  BlockKeyFunc
	Matcher  *Matcher
	MaxBlock int
	// MinAvgProb is the average-linkage floor for joining a cluster
	// (default: the matcher's threshold).
	MinAvgProb float64
}

// Run clusters the records. Pairs are considered in descending match
// probability (the confident merges happen first); a merge is accepted only
// if the joined cluster's average pairwise probability stays above the
// floor.
func (d *CorrelationDeduper) Run(records []*record.Record) []Cluster {
	floor := d.MinAvgProb
	if floor == 0 {
		floor = d.Matcher.Threshold
	}
	type scoredPair struct {
		Pair
		prob float64
	}
	scores := d.Matcher.over(records)
	var scored []scoredPair
	for p := range candidatePairs(blockKeys(records, d.Blocker), d.MaxBlock) {
		prob := scores.prob(p.I, p.J)
		if prob >= d.Matcher.Threshold {
			scored = append(scored, scoredPair{Pair: p, prob: prob})
		}
	}
	sort.Slice(scored, func(i, j int) bool {
		if scored[i].prob != scored[j].prob {
			return scored[i].prob > scored[j].prob
		}
		if scored[i].I != scored[j].I {
			return scored[i].I < scored[j].I
		}
		return scored[i].J < scored[j].J
	})

	clusterOf := make([]int, len(records))
	members := make(map[int][]int, len(records))
	for i := range records {
		clusterOf[i] = i
		members[i] = []int{i}
	}
	for _, sp := range scored {
		ca, cb := clusterOf[sp.I], clusterOf[sp.J]
		if ca == cb {
			continue
		}
		if avgLinkage(scores, members[ca], members[cb]) < floor {
			continue
		}
		// Merge the smaller cluster into the larger.
		if len(members[ca]) < len(members[cb]) {
			ca, cb = cb, ca
		}
		for _, idx := range members[cb] {
			clusterOf[idx] = ca
		}
		members[ca] = append(members[ca], members[cb]...)
		delete(members, cb)
	}

	roots := make([]int, 0, len(members))
	for root := range members {
		roots = append(roots, root)
	}
	sort.Ints(roots)
	out := make([]Cluster, 0, len(roots))
	for _, root := range roots {
		idxs := append([]int(nil), members[root]...)
		sort.Ints(idxs)
		recs := make([]*record.Record, len(idxs))
		for i, idx := range idxs {
			recs[i] = records[idx]
		}
		out = append(out, Cluster{Members: idxs, Record: Consolidate(recs)})
	}
	return out
}

// avgLinkage is the mean pairwise match probability across the two member
// sets.
func avgLinkage(scores *pairScorer, a, b []int) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	var total float64
	for _, i := range a {
		for _, j := range b {
			total += scores.prob(i, j)
		}
	}
	return total / float64(len(a)*len(b))
}
