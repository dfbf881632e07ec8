package similarity

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// The string forms of the Scratch measures, each on a fresh Scratch.
func levenshtein(a, b string) int {
	var s Scratch
	return s.Levenshtein([]rune(a), []rune(b))
}

func levenshteinSim(a, b string) float64 {
	var s Scratch
	return s.LevenshteinSim([]rune(a), []rune(b))
}

func jaro(a, b string) float64 {
	var s Scratch
	return s.Jaro([]rune(a), []rune(b))
}

func jaroWinkler(a, b string) float64 {
	var s Scratch
	return s.JaroWinkler([]rune(a), []rune(b))
}

// jaccardStrings is |A ∩ B| / |A ∪ B| over the token sets as two maps, the
// reference JaccardSorted is checked against. Two empty sets are identical (1).
func jaccardStrings(a, b []string) float64 {
	sa, sb := toSet(a), toSet(b)
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	inter := intersectionSize(sa, sb)
	union := len(sa) + len(sb) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// toSet builds a set from a token slice.
func toSet(tokens []string) map[string]bool {
	set := make(map[string]bool, len(tokens))
	for _, t := range tokens {
		set[t] = true
	}
	return set
}

func intersectionSize(a, b map[string]bool) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	n := 0
	for t := range a {
		if b[t] {
			n++
		}
	}
	return n
}

func trigramSim(a, b string) float64 {
	ra, rb := []rune(strings.ToLower(a)), []rune(strings.ToLower(b))
	var s Scratch
	return s.TrigramSim(ra, rb, Trigrams(ra), Trigrams(rb))
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"matilda", "matilda", 0},
		{"theater", "theatre", 2},
	}
	for _, c := range cases {
		if got := levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestJaro(t *testing.T) {
	if got := jaro("martha", "marhta"); math.Abs(got-0.9444) > 0.001 {
		t.Errorf("Jaro(martha,marhta) = %f", got)
	}
	if got := jaro("dixon", "dicksonx"); math.Abs(got-0.7667) > 0.001 {
		t.Errorf("Jaro(dixon,dicksonx) = %f", got)
	}
	if jaro("", "") != 1 {
		t.Error("Jaro empty/empty should be 1")
	}
	if jaro("a", "") != 0 {
		t.Error("Jaro a/empty should be 0")
	}
	if jaro("abc", "xyz") != 0 {
		t.Error("disjoint should be 0")
	}
}

func TestJaroWinkler(t *testing.T) {
	if got := jaroWinkler("martha", "marhta"); math.Abs(got-0.9611) > 0.001 {
		t.Errorf("JW(martha,marhta) = %f", got)
	}
	// Prefix boost: JW >= Jaro always.
	pairs := [][2]string{{"show", "show_name"}, {"price", "prices"}, {"theater", "theatre"}}
	for _, p := range pairs {
		if jaroWinkler(p[0], p[1]) < jaro(p[0], p[1]) {
			t.Errorf("JW < Jaro for %v", p)
		}
	}
}

func TestSetCoefficients(t *testing.T) {
	a := []string{"broadway", "show", "schedule"}
	b := []string{"show", "schedule", "price"}
	if got := jaccardStrings(a, b); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("Jaccard = %f", got)
	}
	if jaccardStrings(nil, nil) != 1 {
		t.Error("empty/empty should be 1")
	}
	if jaccardStrings([]string{"a"}, nil) != 0 {
		t.Error("jaccard with empty should be 0")
	}
}

func TestTrigramSim(t *testing.T) {
	if got := trigramSim("matilda", "matilda"); got != 1 {
		t.Errorf("identical trigram sim = %f", got)
	}
	if got := trigramSim("ab", "ab"); got != 1 {
		t.Errorf("short identical = %f", got)
	}
	close := trigramSim("schedule", "schedules")
	far := trigramSim("schedule", "location")
	if close <= far {
		t.Errorf("trigram ordering wrong: close=%f far=%f", close, far)
	}
}

// sims under test for shared property checks.
var simFuncs = map[string]func(a, b string) float64{
	"LevenshteinSim": levenshteinSim,
	"Jaro":           jaro,
	"JaroWinkler":    jaroWinkler,
	"TrigramSim":     trigramSim,
}

// Property: every similarity is within [0,1], symmetric, and 1 on identity.
func TestQuickSimilarityProperties(t *testing.T) {
	for name, fn := range simFuncs {
		fn := fn
		f := func(a, b string) bool {
			// Cap input size to keep quadratic metrics fast.
			if len(a) > 40 {
				a = a[:40]
			}
			if len(b) > 40 {
				b = b[:40]
			}
			s := fn(a, b)
			if s < -1e-9 || s > 1+1e-9 {
				return false
			}
			if math.Abs(fn(a, b)-fn(b, a)) > 1e-9 {
				return false
			}
			return math.Abs(fn(a, a)-1) < 1e-9
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// Property: Levenshtein satisfies the triangle inequality.
func TestQuickLevenshteinTriangle(t *testing.T) {
	f := func(a, b, c string) bool {
		if len(a) > 20 {
			a = a[:20]
		}
		if len(b) > 20 {
			b = b[:20]
		}
		if len(c) > 20 {
			c = c[:20]
		}
		return levenshtein(a, c) <= levenshtein(a, b)+levenshtein(b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkJaroWinkler(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		jaroWinkler("the walking dead", "the wolverine")
	}
}

func BenchmarkLevenshtein(b *testing.B) {
	a := strings.Repeat("broadway show ", 3)
	c := strings.Repeat("broadway shows ", 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		levenshtein(a, c)
	}
}
