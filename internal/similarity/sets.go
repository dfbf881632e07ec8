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
