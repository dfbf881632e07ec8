package store

import (
	"slices"
	"strings"
	"unicode"

	"repro/internal/textutil"
)

// textIndex is an inverted index over a text path: lowercased tokens map to
// the ids of documents whose text contains them. It accelerates
// case-insensitive substring (OpContains) filters the way the paper's
// deployment precomputes inverted structures for serve-time fusion queries:
// the index yields a candidate superset cheaply, and the caller verifies
// each candidate with the real substring predicate, so indexed and scanned
// query paths return identical results. Each token holds one posting list,
// as each key of a hash or B-tree index does; a query reads the lists where
// they lie and writes what it merges or intersects into its own scratch.
//
// Synchronization rides on the owning Collection's lock: mutations happen
// under the write lock, candidates under the read lock.
type textIndex struct {
	Path string

	// tokens maps a token to its postings. They sit behind a pointer so
	// that adding an id to a known token is a lookup, which converts the
	// token bytes without copying them, not a store, which would copy them
	// into a new key: every add changes the list's inline highest id, so a
	// list held by value would be stored back each time.
	tokens map[string]*postings
	// slot is the place of Path in its collection's indexPaths.
	slot int

	// Scratch docTokens reuses, guarded like tokens: the tokens of one
	// value, the lowered bytes of all of them, and one span of lower per
	// token.
	toks  []textutil.Token
	lower []byte
	spans []span
}

// span is the byte range [lo, hi) of one token in textIndex.lower.
type span struct{ lo, hi int }

func newTextIndex(path string) *textIndex {
	return &textIndex{Path: path, tokens: make(map[string]*postings)}
}

// Name identifies the index in plans and diagnostics.
func (tx *textIndex) Name() string { return tx.Path + "_text" }

// docTokens extracts the lowercased tokens of v, the value a document
// holds at the indexed path (a list's elements are each tokenized), in
// text order with repeats, as spans of tx.lower. Both are the index's
// scratch, valid until the next call. A repeat costs insert one lookup,
// which postings.add turns away: cheaper than sorting the spans to drop
// it (BenchmarkTextIndexInsert).
func (tx *textIndex) docTokens(v DocValue) []span {
	tx.lower, tx.spans = tx.lower[:0], tx.spans[:0]
	if v.IsList() {
		it := v.Elems()
		for e, ok := it.Next(); ok; e, ok = it.Next() {
			if e.IsScalar() && !e.Scalar().IsNull() {
				tx.collect(e.Scalar().Str())
			}
		}
	} else if v.IsScalar() && !v.Scalar().IsNull() {
		tx.collect(v.Scalar().Str())
	}
	return tx.spans
}

// collect appends the lowered tokens of s to the scratch.
func (tx *textIndex) collect(s string) {
	tx.toks = textutil.AppendTokens(tx.toks[:0], s)
	for _, t := range tx.toks {
		lo := len(tx.lower)
		tx.lower = textutil.AppendLower(tx.lower, t.Text)
		tx.spans = append(tx.spans, span{lo, len(tx.lower)})
	}
}

// insert adds id under the tokens of v, the value its document holds at
// the indexed path, once under each: a token's list ends in id after its
// first occurrence, so add turns the repeats away.
func (tx *textIndex) insert(id int64, v DocValue) {
	for _, sp := range tx.docTokens(v) {
		tok := tx.lower[sp.lo:sp.hi]
		p := tx.tokens[string(tok)]
		if p == nil {
			p = new(postings)
			tx.tokens[string(tok)] = p
		}
		p.add(id)
	}
}

// candidates returns a superset of the ids of documents whose indexed text
// contains low, a lowered needle, case-insensitively, in id (insertion)
// order: one token's posting list as it is stored, or a list written into
// sc. The index must bound low (canBound); a query it cannot bound is a
// scan.
//
// Why the superset holds: every space-separated term of the query consists
// solely of letters and digits, so any occurrence of it in a document lies
// inside one maximal token run and survives the tokenizer's trailing-
// punctuation trim. A matching document therefore carries, for each term,
// some token containing that term as a substring. Interior terms of a
// multi-term query are space-flanked in the occurrence, so they appear as
// exact tokens and are served by a direct postings lookup; edge terms may
// sit inside longer tokens and are served by a substring sweep over the
// token dictionary (which is vocabulary-sized, not corpus-sized). The
// per-term sets are intersected; the result still covers every match.
// Ids are assigned in insertion order, so the ascending result matches the
// scan path's result order exactly.
func (tx *textIndex) candidates(low string, sc *scratch) postings {
	terms := sc.keys[:0]
	for term := range strings.FieldsSeq(low) {
		terms = append(terms, term)
	}
	sc.keys = terms

	// Interior terms are exact posting lists, so they narrow first; an edge
	// term then only has to confirm the survivors instead of merging every
	// token that contains it. Posting lists are ascending, so lists
	// intersect in one pass.
	last := len(terms) - 1
	var result postings
	for i := 1; i < last; i++ {
		var list postings
		if p := tx.tokens[terms[i]]; p != nil {
			list = *p
		}
		if i > 1 {
			list = sc.intersect(result, list)
		}
		if result = list; result.empty() {
			return result
		}
	}
	// The longer edge term, likely the rarer, goes first: with no interior
	// term it is the one whose tokens get merged.
	edges := [2]int{0, last}
	if len(terms[last]) > len(terms[0]) {
		edges[0], edges[1] = last, 0
	}
	for n, i := range edges[:min(len(terms), 2)] {
		if n == 0 && last < 2 { // no interior term has narrowed the result
			result = tx.sweep(terms[i], sc)
		} else {
			result = tx.confirm(result, terms[i], sc)
		}
		if result.empty() {
			return result
		}
	}
	return result
}

// sweep returns the ascending ids of documents holding a token that
// contains term: the one matching token's own list, or the union of all
// of them.
func (tx *textIndex) sweep(term string, sc *scratch) postings {
	sc.reset()
	for tok, p := range tx.tokens {
		if strings.Contains(tok, term) {
			sc.gather(*p)
		}
	}
	return sc.union()
}

// confirm returns those of the ids that some token containing term lists,
// written into sc. Each such token's list is walked beside the ids, as far
// as the highest of them.
func (tx *textIndex) confirm(ids postings, term string, sc *scratch) postings {
	sc.ids = ids.appendTo(sc.ids[:0])
	keep := slices.Grow(sc.keep[:0], len(sc.ids))[:len(sc.ids)]
	clear(keep)
	sc.keep = keep
	for tok, p := range tx.tokens {
		if !strings.Contains(tok, term) {
			continue
		}
		it, i := p.iter(), 0
		for id, ok := it.next(); ok && i < len(sc.ids); id, ok = it.next() {
			for i < len(sc.ids) && sc.ids[i] < id {
				i++
			}
			if i < len(sc.ids) && sc.ids[i] == id {
				keep[i] = true
			}
		}
	}
	out := sc.result()
	for i, id := range sc.ids {
		if keep[i] {
			out.add(id)
		}
	}
	return sc.done(out)
}

// intersect returns the ids both ascending lists hold, written into sc.
func (sc *scratch) intersect(a, b postings) postings {
	out := sc.result()
	ia, ib := a.iter(), b.iter()
	x, okA := ia.next()
	y, okB := ib.next()
	for okA && okB {
		switch {
		case x < y:
			x, okA = ia.next()
		case x > y:
			y, okB = ib.next()
		default:
			out.add(x)
			x, okA = ia.next()
			y, okB = ib.next()
		}
	}
	return sc.done(out)
}

// canBound reports whether a text index can serve the lowered needle low
// at all: it is non-blank and made only of letters, digits, and spaces —
// the precondition of the superset argument in candidates.
func canBound(low string) bool {
	if strings.TrimSpace(low) == "" {
		return false
	}
	for _, r := range low {
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) && !unicode.IsSpace(r) {
			return false
		}
	}
	return true
}
