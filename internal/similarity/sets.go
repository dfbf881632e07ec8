package similarity

import (
	"cmp"
	"slices"
)

// SortedSet sorts s in place and drops repeats: the form JaccardSorted takes,
// built once per item rather than once per comparison.
func SortedSet[T cmp.Ordered](s []T) []T {
	slices.Sort(s)
	return slices.Compact(s)
}

// JaccardSorted is |A ∩ B| / |A ∪ B| over two SortedSets, found by a merge.
// Two empty sets are identical (1).
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
