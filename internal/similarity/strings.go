// Package similarity implements the string- and set-similarity measures the
// schema matcher and entity consolidator score with: edit distances, Jaro /
// Jaro-Winkler, token-set coefficients, character n-gram similarity, TF-IDF
// cosine, and the Monge-Elkan hybrid.
//
// All similarity functions return values in [0, 1] where 1 means identical.
package similarity

import "strings"

// Scratch is the working memory of the rune-slice measures, so a caller
// scoring many pairs allocates it once. The zero value is ready to use; a
// Scratch must not be shared between goroutines. The string functions of
// this package are wrappers that convert once and use a Scratch of their own.
type Scratch struct {
	flags []bool // Jaro match flags of both sides
	rows  []int  // the two Levenshtein rows
}

// Levenshtein returns the edit distance between a and b (insertions,
// deletions, substitutions).
func Levenshtein(a, b string) int {
	var s Scratch
	return s.Levenshtein([]rune(a), []rune(b))
}

// Levenshtein is the edit distance of two rune slices.
func (s *Scratch) Levenshtein(ra, rb []rune) int {
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	if n := 2 * (len(rb) + 1); cap(s.rows) < n {
		s.rows = make([]int, n)
	}
	prev, cur := s.rows[:len(rb)+1], s.rows[len(rb)+1:2*(len(rb)+1)]
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// DamerauLevenshtein returns the edit distance allowing adjacent
// transposition as a single operation (restricted Damerau-Levenshtein).
func DamerauLevenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 {
		return lb
	}
	if lb == 0 {
		return la
	}
	d := make([][]int, la+1)
	for i := range d {
		d[i] = make([]int, lb+1)
		d[i][0] = i
	}
	for j := 0; j <= lb; j++ {
		d[0][j] = j
	}
	for i := 1; i <= la; i++ {
		for j := 1; j <= lb; j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			d[i][j] = min3(d[i-1][j]+1, d[i][j-1]+1, d[i-1][j-1]+cost)
			if i > 1 && j > 1 && ra[i-1] == rb[j-2] && ra[i-2] == rb[j-1] {
				if t := d[i-2][j-2] + 1; t < d[i][j] {
					d[i][j] = t
				}
			}
		}
	}
	return d[la][lb]
}

// LevenshteinSim normalizes Levenshtein distance into a similarity:
// 1 - dist/max(len). Two empty strings are identical (1).
func LevenshteinSim(a, b string) float64 {
	var s Scratch
	return s.LevenshteinSim([]rune(a), []rune(b))
}

// LevenshteinSim is the normalized edit similarity of two rune slices.
func (s *Scratch) LevenshteinSim(ra, rb []rune) float64 {
	maxLen := max2(len(ra), len(rb))
	if maxLen == 0 {
		return 1
	}
	return 1 - float64(s.Levenshtein(ra, rb))/float64(maxLen)
}

// Jaro returns the Jaro similarity of a and b.
func Jaro(a, b string) float64 {
	var s Scratch
	return s.Jaro([]rune(a), []rune(b))
}

// Jaro is the Jaro similarity of two rune slices.
func (s *Scratch) Jaro(ra, rb []rune) float64 {
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
	if cap(s.flags) < la+lb {
		s.flags = make([]bool, la+lb)
	}
	flags := s.flags[:la+lb]
	clear(flags)
	matchA, matchB := flags[:la], flags[la:]
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

// JaroWinkler boosts Jaro similarity for strings sharing a common prefix of
// up to 4 runes, with the standard scaling factor 0.1.
func JaroWinkler(a, b string) float64 {
	var s Scratch
	return s.JaroWinkler([]rune(a), []rune(b))
}

// JaroWinkler is the Jaro-Winkler similarity of two rune slices.
func (s *Scratch) JaroWinkler(ra, rb []rune) float64 {
	j := s.Jaro(ra, rb)
	prefix := 0
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

// TrigramSim is the Jaccard coefficient over character trigrams of the
// lower-cased inputs; short strings fall back to LevenshteinSim.
func TrigramSim(a, b string) float64 {
	ra, rb := []rune(strings.ToLower(a)), []rune(strings.ToLower(b))
	var s Scratch
	return s.TrigramSim(ra, rb, Trigrams(ra), Trigrams(rb))
}

// TrigramSim is TrigramSim over rune slices the caller has already
// lower-cased, with ta and tb their Trigrams.
func (s *Scratch) TrigramSim(ra, rb []rune, ta, tb []uint64) float64 {
	if len(ra) < 3 || len(rb) < 3 {
		return s.LevenshteinSim(ra, rb)
	}
	return JaccardSorted(ta, tb)
}

// Trigrams returns the distinct character trigrams of runes, sorted, each
// packed into one word (a rune needs 21 bits). It returns nil below 3 runes.
func Trigrams(runes []rune) []uint64 {
	if len(runes) < 3 {
		return nil
	}
	out := make([]uint64, 0, len(runes)-2)
	for i := 0; i+3 <= len(runes); i++ {
		out = append(out, uint64(runes[i])<<42|uint64(runes[i+1])<<21|uint64(runes[i+2]))
	}
	return SortedSet(out)
}

func min3(a, b, c int) int { return min2(min2(a, b), c) }

func min2(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max2(a, b int) int {
	if a > b {
		return a
	}
	return b
}
