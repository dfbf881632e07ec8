// Package match implements Data Tamer's schema-matching machinery: the
// heuristic attribute matchers whose scores drive the Figs. 2-3 workflow,
// a weighted composite, and an engine that produces ranked suggestions,
// accept/review/new decisions, and "no counterpart in the global schema"
// alerts.
//
// The value matchers read an attribute's samples through its value signature
// (schema.Attribute.Signature: normalized sample set and numeric range),
// which the attribute memoizes and derives again only once its Samples have
// grown, and the name matcher reads its name through its name profile
// (schema.Attribute.NameProfile: normalized name, its runes and tokens),
// derived again only once its Name has changed. Scoring a source attribute
// against the global schema therefore parses, normalizes and tokenizes each
// side once, not once per pair; this package keeps no cache of its own.
package match

import (
	"repro/internal/record"
	"repro/internal/schema"
	"repro/internal/similarity"
	"repro/internal/synonym"
)

// Matcher scores the similarity of two attribute profiles in [0, 1].
type Matcher interface {
	// Name identifies the matcher in reports and ablations.
	Name() string
	// Score compares a source attribute against a global attribute.
	Score(src, dst *schema.Attribute) float64
}

// NameMatcher compares attribute names: exact normalized equality, synonym
// dictionary hits, token overlap with synonym canonicalization, and
// Jaro-Winkler as a fuzzy fallback.
type NameMatcher struct {
	Dict *synonym.Dict
}

// NewNameMatcher returns a NameMatcher over the default domain dictionary.
func NewNameMatcher() *NameMatcher { return &NameMatcher{Dict: synonym.Default()} }

// Name implements Matcher.
func (*NameMatcher) Name() string { return "name" }

// Score implements Matcher. It reads both attributes' name profiles
// (schema.Attribute.NameProfile), canonicalizes their tokens in stack
// buffers and runs Jaro-Winkler on the profiles' runes, so a warm pair
// allocates nothing.
func (m *NameMatcher) Score(src, dst *schema.Attribute) float64 {
	a, b := src.NameProfile(), dst.NameProfile()
	if a.Norm == b.Norm {
		return 1
	}
	if m.Dict != nil && m.Dict.AreSynonyms(a.Norm, b.Norm) {
		return 0.95
	}
	var abuf, bbuf [8]string
	tok := similarity.JaccardSorted(canonicalTokens(abuf[:0], a.Tokens, m.Dict), canonicalTokens(bbuf[:0], b.Tokens, m.Dict))
	var scratch similarity.Scratch // used only past 64 runes
	jw := scratch.JaroWinkler(a.Runes, b.Runes)
	score := 0.6*tok + 0.4*jw
	if score > 1 {
		score = 1
	}
	return score
}

// canonicalTokens appends a name's tokens, canonicalized by dict when it is
// not nil, to dst as a similarity.SortedSet.
func canonicalTokens(dst, tokens []string, dict *synonym.Dict) []string {
	for _, w := range tokens {
		if dict != nil {
			w = dict.Canonical(w)
		}
		dst = append(dst, w)
	}
	return similarity.SortedSet(dst)
}

// TypeMatcher scores attribute type compatibility.
type TypeMatcher struct{}

// Name implements Matcher.
func (TypeMatcher) Name() string { return "type" }

// Score implements Matcher.
func (TypeMatcher) Score(src, dst *schema.Attribute) float64 {
	if src.Kind == dst.Kind {
		return 1
	}
	numeric := func(k record.Kind) bool { return k == record.KindInt || k == record.KindFloat }
	switch {
	case numeric(src.Kind) && numeric(dst.Kind):
		return 0.85
	case src.Kind == record.KindString || dst.Kind == record.KindString:
		// Strings absorb anything (values may just be unparsed).
		return 0.5
	default:
		return 0.2
	}
}

// ValueMatcher compares attribute value evidence: Jaccard overlap of the
// normalized sample sets, plus numeric range overlap for numeric attributes.
type ValueMatcher struct{}

// Name implements Matcher.
func (ValueMatcher) Name() string { return "value" }

// Score implements Matcher. It reads both attributes' memoized value
// signatures, so a warm pair costs two merges and no allocation.
func (ValueMatcher) Score(src, dst *schema.Attribute) float64 {
	if len(src.Samples) == 0 || len(dst.Samples) == 0 {
		return 0
	}
	a, b := src.Signature(), dst.Signature()
	set := similarity.JaccardSorted(a.Norm, b.Norm)
	if rng, ok := numericRangeOverlap(a, b); ok {
		if rng > set {
			return rng
		}
	}
	return set
}

// numericRangeOverlap computes the overlap coefficient of the two value
// ranges when both sides are predominantly numeric.
func numericRangeOverlap(a, b *schema.ValueSignature) (float64, bool) {
	if !a.Numeric || !b.Numeric {
		return 0, false
	}
	lo := a.Lo
	if b.Lo > lo {
		lo = b.Lo
	}
	hi := a.Hi
	if b.Hi < hi {
		hi = b.Hi
	}
	if hi < lo {
		return 0, true
	}
	span := a.Hi - a.Lo
	if b.Hi-b.Lo > span {
		span = b.Hi - b.Lo
	}
	if span == 0 {
		return 1, true
	}
	return (hi - lo) / span, true
}

// Weighted pairs a matcher with its weight in a composite.
type Weighted struct {
	Matcher Matcher
	Weight  float64
}

// Composite combines matchers as a normalized weighted sum — the "heuristic
// matching scores" of Fig. 3.
type Composite struct {
	parts []Weighted
}

// NewComposite builds a composite over the given weighted matchers.
func NewComposite(parts ...Weighted) *Composite { return &Composite{parts: parts} }

// DefaultComposite is the configuration used by the pipeline: names dominate
// (as in Data Tamer's expert-seeded matching), values corroborate, types
// guard against nonsense.
func DefaultComposite() *Composite {
	return NewComposite(
		Weighted{Matcher: NewNameMatcher(), Weight: 0.55},
		Weighted{Matcher: ValueMatcher{}, Weight: 0.25},
		Weighted{Matcher: TypeMatcher{}, Weight: 0.20},
	)
}

// Name implements Matcher.
func (*Composite) Name() string { return "composite" }

// Score implements Matcher.
func (c *Composite) Score(src, dst *schema.Attribute) float64 {
	var sum, wsum float64
	for _, p := range c.parts {
		sum += p.Weight * p.Matcher.Score(src, dst)
		wsum += p.Weight
	}
	if wsum == 0 {
		return 0
	}
	return sum / wsum
}
