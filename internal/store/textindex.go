package store

import (
	"bytes"
	"slices"
	"strings"
	"unicode"

	"repro/internal/textutil"
)

// TextIndex is an inverted index over a text path: lowercased tokens map to
// the ids of documents whose text contains them. It accelerates
// case-insensitive substring (OpContains) filters the way the paper's
// deployment precomputes inverted structures for serve-time fusion queries:
// the index yields a candidate superset cheaply, and the caller verifies
// each candidate with the real substring predicate, so indexed and scanned
// query paths return identical results. Each token holds one posting list,
// as each key of a hash or B-tree index does.
//
// Synchronization rides on the owning Collection's lock: mutations happen
// under the write lock, Candidates under the read lock.
type TextIndex struct {
	Path string

	// tokens maps a token to its postings. They sit behind a pointer so
	// that adding an id to a known token is a lookup, which converts the
	// token bytes without copying them, not a store, which would copy them
	// into a new key.
	tokens map[string]*postings

	// Scratch docTokens reuses, guarded like tokens: the tokens of one
	// value, the lowered bytes of all of them, and one span of lower per
	// token.
	toks  []textutil.Token
	lower []byte
	spans []span
}

// span is the byte range [lo, hi) of one token in TextIndex.lower.
type span struct{ lo, hi int }

func newTextIndex(path string) *TextIndex {
	return &TextIndex{Path: path, tokens: make(map[string]*postings)}
}

// Name identifies the index in plans and diagnostics.
func (tx *TextIndex) Name() string { return tx.Path + "_text" }

// docTokens extracts the sorted unique lowercased tokens of the document's
// indexed path (list paths index each element's tokens) as spans of
// tx.lower. Both are the index's scratch, valid until the next call.
func (tx *TextIndex) docTokens(d *Doc) []span {
	tx.lower, tx.spans = tx.lower[:0], tx.spans[:0]
	v, ok := d.Path(tx.Path)
	if !ok {
		return nil
	}
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
	low := tx.lower
	slices.SortFunc(tx.spans, func(a, b span) int { return bytes.Compare(low[a.lo:a.hi], low[b.lo:b.hi]) })
	tx.spans = slices.CompactFunc(tx.spans, func(a, b span) bool { return bytes.Equal(low[a.lo:a.hi], low[b.lo:b.hi]) })
	return tx.spans
}

// collect appends the lowered tokens of s to the scratch.
func (tx *TextIndex) collect(s string) {
	tx.toks = textutil.AppendTokens(tx.toks[:0], s)
	for _, t := range tx.toks {
		lo := len(tx.lower)
		tx.lower = textutil.AppendLower(tx.lower, t.Text)
		tx.spans = append(tx.spans, span{lo, len(tx.lower)})
	}
}

func (tx *TextIndex) insert(id int64, d *Doc) {
	for _, sp := range tx.docTokens(d) {
		tok := tx.lower[sp.lo:sp.hi]
		p := tx.tokens[string(tok)]
		if p == nil {
			p = new(postings)
			tx.tokens[string(tok)] = p
		}
		p.add(id)
	}
}

// Candidates returns a superset of the ids of documents whose indexed text
// contains substr case-insensitively, in id (insertion) order. ok is false
// when the index cannot bound the query — substr is empty or carries
// characters outside letters, digits, and spaces — and the caller must fall
// back to a scan.
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
func (tx *TextIndex) Candidates(substr string) ([]int64, bool) {
	low := strings.ToLower(substr)
	if !canBound(low) {
		return nil, false
	}
	terms := strings.Fields(low)

	// Interior terms are exact posting lists, so they narrow first; an edge
	// term then only has to confirm the survivors instead of merging every
	// token that contains it. Posting lists are ascending, so lists
	// intersect in one pass. A list may be returned as it is: the caller
	// holds the collection lock and must not modify it.
	last := len(terms) - 1
	var result []int64
	for i := 1; i < last; i++ {
		var ids []int64
		if p := tx.tokens[terms[i]]; p != nil {
			ids = p.ids()
		}
		if i > 1 {
			ids = intersectSorted(result, ids)
		}
		if result = ids; len(result) == 0 {
			return nil, true
		}
	}
	// The longer edge term, likely the rarer, goes first: with no interior
	// term it is the one whose tokens get merged.
	edges := []int{0, last}
	if last == 0 {
		edges = edges[:1]
	} else if len(terms[last]) > len(terms[0]) {
		edges[0], edges[1] = last, 0
	}
	for _, i := range edges {
		if result == nil {
			result = tx.sweep(terms[i])
		} else {
			result = tx.confirm(result, terms[i])
		}
		if len(result) == 0 {
			return nil, true
		}
	}
	return result, true
}

// sweep returns the ascending ids of documents holding a token that
// contains term: the one matching token's own list, or a sorted merge.
func (tx *TextIndex) sweep(term string) []int64 {
	var first, merged []int64
	for tok, p := range tx.tokens {
		switch {
		case !strings.Contains(tok, term):
		case first == nil:
			first = p.ids()
		default:
			if merged == nil {
				merged = append(merged, first...)
			}
			merged = append(merged, p.ids()...)
		}
	}
	if merged == nil {
		return first
	}
	slices.Sort(merged)
	return slices.Compact(merged)
}

// confirm returns, in a new slice, those of the ascending ids that some
// token containing term lists.
func (tx *TextIndex) confirm(ids []int64, term string) []int64 {
	keep := make([]bool, len(ids))
	for tok, p := range tx.tokens {
		if !strings.Contains(tok, term) {
			continue
		}
		for i, id := range ids {
			if !keep[i] {
				_, keep[i] = slices.BinarySearch(p.ids(), id)
			}
		}
	}
	out := make([]int64, 0, len(ids))
	for i, id := range ids {
		if keep[i] {
			out = append(out, id)
		}
	}
	return out
}

// intersectSorted returns the ids present in both ascending lists, in a new
// slice.
func intersectSorted(a, b []int64) []int64 {
	var out []int64
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			a = a[1:]
		case a[0] > b[0]:
			b = b[1:]
		default:
			out, a, b = append(out, a[0]), a[1:], b[1:]
		}
	}
	return out
}

// CanBound reports whether the index can serve substr at all — the purely
// lexical half of Candidates, cheap enough for query planning.
func (tx *TextIndex) CanBound(substr string) bool {
	return canBound(strings.ToLower(substr))
}

// canBound checks the lowercased query is non-blank and made only of
// letters, digits, and spaces — the precondition of the superset argument.
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
