package similarity

import (
	"math"
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
		if got, want := s.JaroWinkler(ra, rb), jaroWinkler(a, b); got != want {
			t.Fatalf("JaroWinkler(%q, %q) = %v reused, %v fresh", a, b, got, want)
		}
		if got, want := s.Levenshtein(ra, rb), levenshtein(a, b); got != want {
			t.Fatalf("Levenshtein(%q, %q) = %v reused, %v fresh", a, b, got, want)
		}
		if got, want := s.TrigramSim(ra, rb, Trigrams(ra), Trigrams(rb)), trigramSim(a, b); got != want {
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
		if got, want := JaccardSorted(sorted(a), sorted(b)), jaccardStrings(a, b); got != want {
			t.Fatalf("JaccardSorted(%q, %q) = %v, jaccardStrings %v", a, b, got, want)
		}
	}
}

// referenceJaro is Jaro as the flag loop computes it for every length: the
// bit path must agree with it to the last bit.
func referenceJaro(ra, rb []rune) float64 {
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := max2(la, lb)/2 - 1
	if window < 0 {
		window = 0
	}
	matchA, matchB := make([]bool, la), make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := max2(0, i-window)
		hi := min2(lb-1, i+window)
		for j := lo; j <= hi; j++ {
			if matchB[j] || ra[i] != rb[j] {
				continue
			}
			matchA[i], matchB[j] = true, true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	transpositions := 0
	j := 0
	for i := 0; i < la; i++ {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

func checkJaro(t *testing.T, a, b string) {
	t.Helper()
	ra, rb := []rune(a), []rune(b)
	var s Scratch
	if got, want := s.Jaro(ra, rb), referenceJaro(ra, rb); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("Jaro(%q, %q) = %v, flag loop %v", a, b, got, want)
	}
}

// Slices of every length up to past 64 runes, ASCII and not, repeating
// runes so that the first free match within the window decides.
func TestJaroMatchesFlagLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		a, b := make([]rune, rng.Intn(70)), make([]rune, rng.Intn(70))
		for _, w := range [][]rune{a, b} {
			for j := range w {
				w[j] = []rune("abcé_☃")[rng.Intn(6)]
			}
		}
		checkJaro(t, string(a), string(b))
	}
}

func FuzzJaroMatchesFlagLoop(f *testing.F) {
	for _, p := range [][2]string{{"martha", "marhta"}, {"dixon", "dicksonx"}, {"", "a"}, {"théâtre", "theater"}, {strings.Repeat("ab", 40), strings.Repeat("ba", 33)}} {
		f.Add(p[0], p[1])
	}
	f.Fuzz(checkJaro)
}

func TestShortJaroWinklerAllocatesNothing(t *testing.T) {
	a, b := []rune("cheapest_price"), []rune("ticket_price")
	var s Scratch
	if n := testing.AllocsPerRun(100, func() { s.JaroWinkler(a, b) }); n != 0 {
		t.Errorf("JaroWinkler of two names on a zero Scratch allocates %v times, want 0", n)
	}
}
