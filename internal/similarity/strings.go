// Package similarity implements the string- and set-similarity measures the
// schema matcher and entity consolidator score with: edit distance, Jaro /
// Jaro-Winkler, token-set Jaccard and character-trigram similarity.
//
// All similarity functions return values in [0, 1] where 1 means identical.
package similarity

import "math/bits"

// Scratch is the working memory of the rune-slice measures, so a caller
// scoring many pairs allocates it once. The zero value is ready to use; a
// Scratch must not be shared between goroutines. Jaro and JaroWinkler use
// it only past 64 runes a side: a zero Scratch of a caller's own scores
// shorter slices without allocating.
type Scratch struct {
	flags []bool // Jaro match flags of both sides
	rows  []int  // the two Levenshtein rows
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

// LevenshteinSim is the normalized edit similarity of two rune slices.
func (s *Scratch) LevenshteinSim(ra, rb []rune) float64 {
	maxLen := max2(len(ra), len(rb))
	if maxLen == 0 {
		return 1
	}
	return 1 - float64(s.Levenshtein(ra, rb))/float64(maxLen)
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
	if la <= 64 && lb <= 64 {
		return jaroBits(ra, rb, window)
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

// jaroBits is Jaro's matching and transposition count over two nonempty
// slices of at most 64 runes, with the match flags of each side as the bits
// of one word: rune i of ra matches the first unmatched rune of rb equal to
// it within the window, the lowest bit of one mask, as the flag loop finds
// it. It reads no Scratch, so it allocates nothing.
func jaroBits(ra, rb []rune, window int) float64 {
	var ascii [128]uint64 // positions in rb of each ASCII rune
	for j, r := range rb {
		if r >= 0 && r < 128 {
			ascii[r] |= 1 << j
		}
	}
	var matchA, matchB uint64
	matches := 0
	for i, r := range ra {
		lo, hi := max2(0, i-window), min2(len(rb)-1, i+window)
		if hi < lo {
			continue
		}
		var eq uint64
		if r >= 0 && r < 128 {
			eq = ascii[r]
		} else {
			for j := lo; j <= hi; j++ {
				if rb[j] == r {
					eq |= 1 << j
				}
			}
		}
		if cand := eq &^ matchB & (^uint64(0) >> (63 - hi)) >> lo << lo; cand != 0 {
			matchA |= 1 << i
			matchB |= cand & -cand
			matches++
		}
	}
	if matches == 0 {
		return 0
	}
	transpositions := 0
	for a, b := matchA, matchB; a != 0; a, b = a&(a-1), b&(b-1) {
		if ra[bits.TrailingZeros64(a)] != rb[bits.TrailingZeros64(b)] {
			transpositions++
		}
	}
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(len(ra)) + m/float64(len(rb)) + (m-t)/m) / 3
}

// JaroWinkler is the Jaro-Winkler similarity of two rune slices: Jaro
// boosted for a common prefix of up to 4 runes, with the standard scaling
// factor 0.1.
func (s *Scratch) JaroWinkler(ra, rb []rune) float64 {
	j := s.Jaro(ra, rb)
	prefix := 0
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

// TrigramSim is the Jaccard coefficient over the character trigrams of
// rune slices the caller has already lower-cased, with ta and tb their
// Trigrams; short slices fall back to LevenshteinSim.
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
