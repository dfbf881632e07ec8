package similarity

import (
	"cmp"
	"slices"
)

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

// JaccardStrings is |A ∩ B| / |A ∪ B| over the token sets. Two empty sets
// are identical (1).
func JaccardStrings(a, b []string) float64 {
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

// SortedSet sorts s in place and drops repeats: the form JaccardSorted takes,
// built once per item where JaccardStrings builds two maps per comparison.
func SortedSet[T cmp.Ordered](s []T) []T {
	slices.Sort(s)
	return slices.Compact(s)
}

// JaccardSorted is JaccardStrings over two SortedSets: a merge, no maps.
func JaccardSorted[T cmp.Ordered](a, b []T) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch c := cmp.Compare(a[i], b[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// Dice is 2|A ∩ B| / (|A| + |B|).
func Dice(a, b []string) float64 {
	sa, sb := toSet(a), toSet(b)
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	denom := len(sa) + len(sb)
	if denom == 0 {
		return 1
	}
	return 2 * float64(intersectionSize(sa, sb)) / float64(denom)
}

// Overlap is |A ∩ B| / min(|A|, |B|), the containment coefficient.
func Overlap(a, b []string) float64 {
	sa, sb := toSet(a), toSet(b)
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	m := len(sa)
	if len(sb) < m {
		m = len(sb)
	}
	if m == 0 {
		return 0
	}
	return float64(intersectionSize(sa, sb)) / float64(m)
}

// MongeElkan computes the asymmetric Monge-Elkan score: the mean over tokens
// of a of the best inner similarity against tokens of b. Symmetrize with
// MongeElkanSym when needed.
func MongeElkan(a, b []string, inner func(x, y string) float64) float64 {
	if len(a) == 0 {
		if len(b) == 0 {
			return 1
		}
		return 0
	}
	var total float64
	for _, x := range a {
		best := 0.0
		for _, y := range b {
			if s := inner(x, y); s > best {
				best = s
			}
		}
		total += best
	}
	return total / float64(len(a))
}

// MongeElkanSym is the mean of the two asymmetric Monge-Elkan directions.
func MongeElkanSym(a, b []string, inner func(x, y string) float64) float64 {
	return (MongeElkan(a, b, inner) + MongeElkan(b, a, inner)) / 2
}
