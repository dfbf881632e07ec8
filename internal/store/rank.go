package store

import (
	"cmp"
	"slices"
	"strings"

	"repro/dterr"
	"repro/internal/textutil"
)

// Rank orders a query's matches by relevance instead of the shard's order:
// each match scores by its best sentence of the text at Path that mentions
// Terms[0], a sentence scoring the weighted sum of how often it holds each
// term, case folded. A match with no such sentence, or only negative sums,
// scores 0. Higher scores rank first, then longer texts, then
// lexicographically smaller ones, then the sharded order, which makes the
// ranking a total order: a shard's best n followed by a merge of every
// shard's best n is the best n of them all.
type Rank struct {
	// Path is the dotted path of the text scored.
	Path string
	// Terms are the counted terms. A sentence counts only if it holds the
	// first, which must not be empty.
	Terms []Term
}

// Term is one counted term of a Rank and the weight of each occurrence.
type Term struct {
	Text   string
	Weight int
}

// check refuses a rank a router could not apply to the documents fields
// leaves it: no path, no first term, or a field list without the path's
// top-level field.
func (r *Rank) check(fields []string) error {
	if r.Path == "" || len(r.Terms) == 0 || r.Terms[0].Text == "" {
		return dterr.Newf(dterr.CodeInvalidArgument, "store: rank needs a path and a first term, got %q and %d terms", r.Path, len(r.Terms))
	}
	if top, _, _ := strings.Cut(r.Path, "."); len(fields) > 0 && !slices.Contains(fields, top) {
		return dterr.Newf(dterr.CodeInvalidArgument, "store: rank path %q is not among the query's fields %q", r.Path, fields)
	}
	return nil
}

// score is the relevance of text: its best sentence's weighted term count.
// It allocates nothing.
func (r *Rank) score(text string) int {
	if len(r.Terms) == 0 {
		return 0
	}
	best := 0
	for sent, rest := textutil.NextSentence(text); sent != ""; sent, rest = textutil.NextSentence(rest) {
		n := textutil.CountFold(sent, r.Terms[0].Text)
		if n == 0 {
			continue
		}
		v := r.Terms[0].Weight * n
		for _, t := range r.Terms[1:] {
			v += t.Weight * textutil.CountFold(sent, t.Text)
		}
		best = max(best, v)
	}
	return best
}

// hit is one scored match; seq is its place in the order matches came in.
type hit struct {
	doc   *Doc
	text  string
	score int
	seq   int
}

// compareHits orders hits best first: by score, then length, then text,
// then arrival.
func compareHits(a, b hit) int {
	if a.score != b.score {
		return cmp.Compare(b.score, a.score)
	}
	if len(a.text) != len(b.text) {
		return cmp.Compare(len(b.text), len(a.text))
	}
	if c := strings.Compare(a.text, b.text); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// topK keeps the best k documents of those added, all of them for
// NoLimit, in a heap whose root is the worst kept — the one the next better
// document evicts. Only the kept are sorted, once, at the end.
type topK struct {
	rank *Rank
	k    int
	hits []hit
	seen int
}

// add scores d and keeps it if it ranks among the best k so far.
func (t *topK) add(d *Doc) {
	h := hit{doc: d, text: d.PathString(t.rank.Path), seq: t.seen}
	t.seen++
	h.score = t.rank.score(h.text)
	switch {
	case t.k < 0 || len(t.hits) < t.k:
		t.hits = append(t.hits, h)
		if len(t.hits) == t.k {
			// Worst first is a heap already.
			slices.SortFunc(t.hits, func(a, b hit) int { return compareHits(b, a) })
		}
	case compareHits(h, t.hits[0]) < 0:
		t.hits[0] = h
		t.sinkRoot()
	}
}

// sinkRoot restores heap order — no hit ranks ahead of its children, so
// hits[0] is the worst — after hits[0] was replaced.
func (t *topK) sinkRoot() {
	h := t.hits
	for i := 0; ; {
		worst := i
		for kid := 2*i + 1; kid <= 2*i+2 && kid < len(h); kid++ {
			if compareHits(h[worst], h[kid]) < 0 {
				worst = kid
			}
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// window returns the kept documents best first, from the offset'th on; nil
// when none is left.
func (t *topK) window(offset int) []*Doc {
	slices.SortFunc(t.hits, compareHits)
	kept := t.hits[min(max(offset, 0), len(t.hits)):]
	if len(kept) == 0 {
		return nil
	}
	docs := make([]*Doc, len(kept))
	for i, h := range kept {
		docs[i] = h.doc
	}
	return docs
}
