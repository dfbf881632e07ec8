package textutil

import (
	"unicode"
	"unicode/utf8"
)

// Case-insensitive substring search without building lowered copies.
// ContainsFold and CountFold answer exactly what strings.Contains and
// strings.Count answer over strings.ToLower of both arguments — rune by
// rune through unicode.ToLower, an invalid byte reading as U+FFFD — so
// they are not strings.EqualFold: 'ſ' does not match 's' and 'K' (Kelvin)
// matches 'k' only because it lowers to it.

// foldRune decodes the first rune of the non-empty s as strings.ToLower
// would emit it.
func foldRune(s string) (rune, int) {
	if c := s[0]; c < utf8.RuneSelf {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		return rune(c), 1
	}
	r, w := utf8.DecodeRuneInString(s)
	return unicode.ToLower(r), w
}

// indexFold returns the byte range of the first folded occurrence of the
// non-empty substr in s, or (-1, -1).
func indexFold(s, substr string) (start, end int) {
	first, firstW := foldRune(substr)
	for i := 0; i < len(s); {
		r, w := foldRune(s[i:])
		if r == first {
			j, k := i+w, firstW
			for k < len(substr) && j < len(s) {
				a, aw := foldRune(s[j:])
				b, bw := foldRune(substr[k:])
				if a != b {
					break
				}
				j, k = j+aw, k+bw
			}
			if k == len(substr) {
				return i, j
			}
		}
		i += w
	}
	return -1, -1
}

// AppendLower appends strings.ToLower(s) to dst, byte for byte, and returns
// the extended slice: ASCII is lowered a byte at a time and the rest rune by
// rune, as strings.ToLower maps it.
func AppendLower(dst []byte, s string) []byte {
	for i := 0; i < len(s); {
		r, w := foldRune(s[i:])
		dst = utf8.AppendRune(dst, r)
		i += w
	}
	return dst
}

// ContainsFold reports whether s contains substr ignoring case:
// strings.Contains(strings.ToLower(s), strings.ToLower(substr)) with no
// allocation.
func ContainsFold(s, substr string) bool {
	if substr == "" {
		return true
	}
	start, _ := indexFold(s, substr)
	return start >= 0
}

// CountFold counts the non-overlapping occurrences of substr in s ignoring
// case: strings.Count(strings.ToLower(s), strings.ToLower(substr)) with no
// allocation.
func CountFold(s, substr string) int {
	if substr == "" {
		return utf8.RuneCountInString(s) + 1
	}
	n := 0
	for {
		start, end := indexFold(s, substr)
		if start < 0 {
			return n
		}
		n++
		s = s[end:]
	}
}
