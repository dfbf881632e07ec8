package dedup

import (
	"sort"
	"strings"

	"repro/internal/ml"
	"repro/internal/record"
	"repro/internal/textutil"
)

// LabeledPair is a labeled training pair for the match classifier.
type LabeledPair struct {
	A, B  *record.Record
	Match bool
}

// TrainMatcher fits the match classifier from labeled pairs using the given
// trainer (naive Bayes over discretized similarity features by default when
// trainer is nil — the configuration behind the paper's 89/90 result).
func TrainMatcher(pairs []LabeledPair, fz Featurizer, trainer ml.Trainer) *Matcher {
	if trainer == nil {
		trainer = ml.NaiveBayesTrainer(5)
	}
	examples := make([]ml.Example, len(pairs))
	features := newScorer(fz, nil)
	for i, p := range pairs {
		examples[i] = ml.Example{Features: features.features(p.A, p.B), Label: p.Match}
	}
	m := &Matcher{Model: trainer(examples), Featurizer: fz, Threshold: 0.5}
	m.sc = newScorer(fz, m.Model)
	return m
}

// Matcher classifies whether two records describe the same entity. Model
// and Featurizer are fixed once TrainMatcher returns; Threshold may be moved.
type Matcher struct {
	Model      ml.Classifier
	Featurizer Featurizer
	// Threshold is the match probability floor (default 0.5).
	Threshold float64

	sc *scorer // Featurizer bound to Model, built by TrainMatcher
}

// scorer returns the Featurizer bound to the Model. A Matcher assembled by
// hand has none stored; it gets a fresh one per call and is never written
// to, so Matchers stay safe for concurrent use.
func (m *Matcher) scorer() *scorer {
	if m.sc != nil {
		return m.sc
	}
	return newScorer(m.Featurizer, m.Model)
}

// Prob returns the match probability for a pair.
func (m *Matcher) Prob(a, b *record.Record) float64 {
	sc := m.scorer()
	pa, pb := sc.profilePair(a, b)
	var v pairVector
	return sc.prob(pa, pb, &v)
}

// Match reports whether the pair clears the threshold.
func (m *Matcher) Match(a, b *record.Record) bool {
	return m.Prob(a, b) >= m.Threshold
}

// pairScorer scores pairs of one record slice by index: every record is
// profiled once, and every pair is scored from two profiles into one reused
// vector. It lives for one Run and is not for concurrent use.
type pairScorer struct {
	sc       *scorer
	profiles []recordProfile
	vec      pairVector
}

func (m *Matcher) over(records []*record.Record) *pairScorer {
	ps := &pairScorer{sc: m.scorer(), profiles: make([]recordProfile, len(records))}
	pr := profiler{sc: ps.sc}
	for i, r := range records {
		ps.profiles[i] = pr.profile(r)
	}
	return ps
}

func (ps *pairScorer) prob(i, j int) float64 {
	return ps.sc.prob(ps.profiles[i], ps.profiles[j], &ps.vec)
}

// Deduper runs end-to-end entity consolidation.
type Deduper struct {
	Blocker  BlockKeyFunc
	Matcher  *Matcher
	MaxBlock int // blocking cap (0 = none)
}

// Cluster is one consolidated entity: the member record indices and the
// merged record.
type Cluster struct {
	Members []int
	Record  *record.Record
}

// Run blocks, classifies candidate pairs, clusters transitively, and
// consolidates each cluster into one record.
func (d *Deduper) Run(records []*record.Record) []Cluster {
	return d.RunKeyed(records, blockKeys(records, d.Blocker)).Clusters
}

// Consolidation is what RunKeyed returns: the clusters, and how many
// candidate pairs it met and how many of those it scored.
type Consolidation struct {
	Clusters           []Cluster
	Candidates, Scored int
}

// RunKeyed is Run for a caller that already holds the records' blocking
// keys: keys[i] must be what d.Blocker returns for records[i]. A candidate
// pair whose records are already in one cluster is not scored: joining
// them could change no cluster, so the clusters are those of scoring every
// pair.
func (d *Deduper) RunKeyed(records []*record.Record, keys [][]string) Consolidation {
	uf := NewUnionFind(len(records))
	scores := d.Matcher.over(records)
	var res Consolidation
	for p := range candidatePairs(keys, d.MaxBlock) {
		res.Candidates++
		if uf.Find(p.I) == uf.Find(p.J) {
			continue
		}
		res.Scored++
		if scores.prob(p.I, p.J) >= d.Matcher.Threshold {
			uf.Union(p.I, p.J)
		}
	}
	for _, members := range uf.Clusters() {
		recs := make([]*record.Record, len(members))
		for i, idx := range members {
			recs[i] = records[idx]
		}
		res.Clusters = append(res.Clusters, Cluster{Members: members, Record: Consolidate(recs)})
	}
	return res
}

// Consolidate merges records describing one entity into a composite record:
// for each attribute, the most frequent normalized value wins (ties broken
// toward the longest raw value, then lexicographically); provenance is the
// sorted union of sources.
func Consolidate(records []*record.Record) *record.Record {
	if len(records) == 0 {
		return record.New()
	}
	if len(records) == 1 {
		return records[0].Clone()
	}
	// Gather values per normalized attribute, keeping first-seen display name.
	type valueInfo struct {
		display string
		raw     []string
	}
	attrs := map[string]*valueInfo{}
	var order []string
	for _, r := range records {
		for _, f := range r.Fields() {
			key := record.NormalizeName(f.Name)
			vi, ok := attrs[key]
			if !ok {
				vi = &valueInfo{display: f.Name}
				attrs[key] = vi
				order = append(order, key)
			}
			if !f.Value.IsNull() {
				vi.raw = append(vi.raw, f.Value.Str())
			}
		}
	}
	out := record.NewCap(len(order))
	sources := map[string]bool{}
	for _, r := range records {
		if r.Source != "" {
			sources[r.Source] = true
		}
	}
	for _, key := range order {
		vi := attrs[key]
		if len(vi.raw) == 0 {
			continue
		}
		best := pickValue(vi.raw)
		out.Set(vi.display, record.Infer(best))
	}
	srcs := make([]string, 0, len(sources))
	for s := range sources {
		srcs = append(srcs, s)
	}
	sort.Strings(srcs)
	out.Source = strings.Join(srcs, "+")
	return out
}

// pickValue selects the consolidated value: majority by normalized form,
// ties to the longest raw string, then lexicographic for determinism.
func pickValue(raw []string) string {
	counts := map[string]int{}
	bestRaw := map[string]string{}
	for _, v := range raw {
		n := textutil.Normalize(v)
		counts[n]++
		cur, ok := bestRaw[n]
		if !ok || len(v) > len(cur) || (len(v) == len(cur) && v < cur) {
			bestRaw[n] = v
		}
	}
	type cand struct {
		norm  string
		count int
	}
	cands := make([]cand, 0, len(counts))
	for n, c := range counts {
		cands = append(cands, cand{norm: n, count: c})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].count != cands[j].count {
			return cands[i].count > cands[j].count
		}
		li, lj := len(bestRaw[cands[i].norm]), len(bestRaw[cands[j].norm])
		if li != lj {
			return li > lj
		}
		return cands[i].norm < cands[j].norm
	})
	return bestRaw[cands[0].norm]
}
