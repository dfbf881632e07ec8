package similarity

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// One Scratch carried across pairs of every length must give what a fresh one
// gives: the flags and rows of the last pair must not leak into the next.
func TestScratchReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	word := func() string {
		b := make([]rune, rng.Intn(14))
		for i := range b {
			b[i] = []rune("abcdé ")[rng.Intn(6)]
		}
		return string(b)
	}
	var s Scratch
	for i := 0; i < 2000; i++ {
		a, b := word(), word()
		ra, rb := []rune(a), []rune(b)
		if got, want := s.JaroWinkler(ra, rb), JaroWinkler(a, b); got != want {
			t.Fatalf("JaroWinkler(%q, %q) = %v reused, %v fresh", a, b, got, want)
		}
		if got, want := s.Levenshtein(ra, rb), Levenshtein(a, b); got != want {
			t.Fatalf("Levenshtein(%q, %q) = %v reused, %v fresh", a, b, got, want)
		}
		if got, want := s.TrigramSim(ra, rb, Trigrams(ra), Trigrams(rb)), TrigramSim(a, b); got != want {
			t.Fatalf("TrigramSim(%q, %q) = %v reused, %v fresh", a, b, got, want)
		}
	}
}

func TestJaccardSortedMatchesJaccardStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	set := func() []string {
		out := make([]string, rng.Intn(6))
		for i := range out {
			out[i] = strings.Repeat("x", rng.Intn(5))
		}
		return out
	}
	sorted := func(s []string) []string {
		s = slices.Clone(s)
		slices.Sort(s)
		return slices.Compact(s)
	}
	for i := 0; i < 500; i++ {
		a, b := set(), set()
		if got, want := JaccardSorted(sorted(a), sorted(b)), JaccardStrings(a, b); got != want {
			t.Fatalf("JaccardSorted(%q, %q) = %v, JaccardStrings %v", a, b, got, want)
		}
	}
}
