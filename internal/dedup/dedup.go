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
//
// It trains the way RunKeyed scores: each distinct value is profiled once,
// each pair is scored from two reused profiles into one reused vector, and
// the vector goes to the trainer as (row, value) cells of an ml.Table whose
// rows the scorer resolved per attribute, not per pair.
func TrainMatcher(pairs []LabeledPair, fz Featurizer, trainer ml.Trainer) *Matcher {
	if trainer == nil {
		trainer = ml.NaiveBayesTrainer(5)
	}
	var table ml.Table
	pr := profiler{sc: bindScorer(fz, nil, nil, &table), memo: &valueMemo{profiles: map[string]valueProfile{}}}
	if n := len(pr.sc.attrs); n > 0 {
		table.Grow(len(pairs), len(pairs)*(featKinds*n+2))
	}
	var pa, pb recordProfile
	var v pairVector
	for _, p := range pairs {
		pa, pb = pr.profileInto(pa, p.A), pr.profileInto(pb, p.B)
		pr.sc.score(pa, pb, &v)
		for i, row := range v.rows {
			table.Set(row, v.vals[i])
		}
		table.End(p.Match)
	}
	m := &Matcher{Model: trainer.TrainTable(&table), Featurizer: fz, Threshold: 0.5}
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

// pairScorer scores pairs of one record slice by index: a record is
// profiled the first time a pair needs it, and every pair is scored from two
// profiles into one reused vector. It lives for one Run and is not for
// concurrent use.
type pairScorer struct {
	pr       profiler
	records  []*record.Record
	profiles []recordProfile // nil until built: a built profile is never nil
	vec      pairVector
}

func (m *Matcher) over(records []*record.Record) *pairScorer {
	return &pairScorer{pr: profiler{sc: m.scorer()}, records: records, profiles: make([]recordProfile, len(records))}
}

func (ps *pairScorer) profile(i int) recordProfile {
	if ps.profiles[i] == nil {
		ps.profiles[i] = ps.pr.profile(ps.records[i])
	}
	return ps.profiles[i]
}

func (ps *pairScorer) prob(i, j int) float64 {
	return ps.pr.sc.prob(ps.profile(i), ps.profile(j), &ps.vec)
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
	return d.RunKeyed(records, blockKeys(records, d.Blocker), nil).Clusters
}

// Consolidation is what RunKeyed returns: the clusters, and how many
// candidate pairs of groups of interchangeable records it met (a group
// against itself included) and how many of those it scored.
type Consolidation struct {
	Clusters           []Cluster
	Candidates, Scored int
}

// RunKeyed is Run for a caller that already holds the records' blocking
// keys: keys[i] must be what d.Blocker returns for records[i].
//
// It scores distinct values, not records. Records whose profiles read equal
// values and whose key lists are equal are interchangeable (groupRecords):
// a pair's probability is a function of its two profiles, and whether it
// is a candidate a function of its two key lists, so one score stands for
// every record pair of two groups, and one for the pairs inside a group. A
// group that matches itself or another group is joined whole; one that
// matches nothing leaves its records apart. A candidate pair of two groups
// already joined whole into one cluster is not scored: joining them could
// change no cluster.
//
// prior, when not nil, gives each record's cluster from an earlier run
// over the records it saw (any id of zero or more), or -1 for a record
// that run did not see. Records of one prior cluster start joined, and
// only pairs with a new record are scored: two prior records in different
// clusters were scored, and failed to match, when the later of them
// arrived. That holds while no block the earlier run kept has grown past
// MaxBlock.
func (d *Deduper) RunKeyed(records []*record.Record, keys [][]string, prior []int) Consolidation {
	g := groupRecords(d.Matcher.scorer(), records, keys)
	n := len(g.first)
	groupKeys := make([][]string, n)
	reps := make([]*record.Record, n)
	// joined[id]: every record of group id is, or will end, in one cluster.
	joined := make([]bool, n)
	for id, i := range g.first {
		groupKeys[id], reps[id] = keys[i], records[i]
		joined[id] = g.size[id] == 1 || prior != nil && prior[i] >= 0
	}
	uf := NewUnionFind(len(records))
	var pending []bool
	if prior != nil {
		pending = make([]bool, n)
		firstOf := map[int]int{} // a prior cluster's first record
		for i, c := range prior {
			id := g.of[i]
			if c != prior[g.first[id]] {
				joined[id] = false
			}
			if c < 0 {
				pending[id] = true
			} else if f, ok := firstOf[c]; ok {
				uf.Union(f, i)
			} else {
				firstOf[c] = i
			}
		}
	}
	scores := d.Matcher.over(reps)
	var res Consolidation
	for p := range candidatePairs(groupKeys, g.size, d.MaxBlock, pending) {
		res.Candidates++
		a, b := g.first[p.I], g.first[p.J]
		if joined[p.I] && joined[p.J] && uf.Find(a) == uf.Find(b) {
			continue
		}
		res.Scored++
		if scores.prob(p.I, p.J) >= d.Matcher.Threshold {
			uf.Union(a, b)
			joined[p.I], joined[p.J] = true, true
		}
	}
	for i, id := range g.of {
		if joined[id] {
			uf.Union(i, g.first[id])
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
		raw     map[string]int // each distinct non-null value, by Str, and its count
	}
	attrs := map[string]*valueInfo{}
	spelled := map[string]*valueInfo{} // by name as spelled, normalized once
	var order []string
	for _, r := range records {
		for _, f := range r.Fields() {
			vi, ok := spelled[f.Name]
			if !ok {
				key := record.NormalizeName(f.Name)
				if vi, ok = attrs[key]; !ok {
					vi = &valueInfo{display: f.Name}
					attrs[key] = vi
					order = append(order, key)
				}
				spelled[f.Name] = vi
			}
			if !f.Value.IsNull() {
				if vi.raw == nil {
					vi.raw = map[string]int{}
				}
				vi.raw[f.Value.Str()]++
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
		out.Set(vi.display, record.Infer(pickValue(vi.raw)))
	}
	srcs := make([]string, 0, len(sources))
	for s := range sources {
		srcs = append(srcs, s)
	}
	sort.Strings(srcs)
	out.Source = strings.Join(srcs, "+")
	return out
}

// pickValue selects the consolidated value from each distinct raw value
// and how many records hold it: majority by normalized form, ties to the
// longest raw string, then lexicographic for determinism. Each raw value is
// normalized once, and the order is total, so map order cannot show.
func pickValue(raw map[string]int) string {
	if len(raw) == 1 {
		for v := range raw {
			return v
		}
	}
	type form struct {
		count int
		best  string // the longest raw value of this form, the least of equals
	}
	forms := make(map[string]form, len(raw))
	for v, c := range raw {
		n := textutil.Normalize(v)
		f, ok := forms[n]
		f.count += c
		if !ok || len(v) > len(f.best) || (len(v) == len(f.best) && v < f.best) {
			f.best = v
		}
		forms[n] = f
	}
	var win form
	var winNorm string
	for n, f := range forms {
		if f.count > win.count || f.count == win.count &&
			(len(f.best) > len(win.best) || len(f.best) == len(win.best) && n < winNorm) {
			win, winNorm = f, n
		}
	}
	return win.best
}
