package extract

import "strings"

// Surface patterns. URL is an entity type of Table III; money, price, date,
// schedule and percent spans become attributes on the extracted fragment,
// which is how the demo's CHEAPEST_PRICE and FIRST fields get populated from
// text.
//
// Each pattern is a hand-written scanner that returns exactly what Go's
// regexp returned for the expression quoted above it (patterns_test.go keeps
// the expressions and compares): the leftmost match, and at that position
// the one a backtracking matcher reaches first. As in Go's regexp, \d is
// [0-9], \s is [\t\n\f\r ], and \b is a boundary between an ASCII word
// character [0-9A-Za-z_] and anything else, the text's ends included. Every
// rune a pattern names explicitly is ASCII save for two that (?i) adds, so
// the scanners read bytes: a byte of a multi-byte rune, or of an invalid
// sequence, is never a word character, a digit or a space.

// scanner reports where a match of its pattern that starts at text[i] ends,
// or -1 when none starts there.
type scanner func(text string, i int) int

// attrPatterns are the attribute patterns in key order, so that one pass
// over them builds a key-sorted attribute list.
var attrPatterns = [...]struct {
	key  string
	scan scanner
}{
	{"date", dateAt},
	{"gross", moneyAt},
	{"percent", percentAt},
	{"price", priceAt},
	{"schedule", scheduleAt},
}

// find returns the leftmost match of scan in text at or after from, as
// [start, end), or (-1, -1). No pattern matches the empty string.
func find(text string, from int, scan scanner) (start, end int) {
	for i := from; i < len(text); i++ {
		if end := scan(text, i); end >= 0 {
			return i, end
		}
	}
	return -1, -1
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\f' || c == '\r'
}

func isWordByte(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_'
}

// boundary reports whether \b holds before text[i].
func boundary(text string, i int) bool {
	before := i > 0 && isWordByte(text[i-1])
	after := i < len(text) && isWordByte(text[i])
	return before != after
}

// digits counts the digits that start at text[i].
func digits(text string, i int) int {
	n := 0
	for i+n < len(text) && isDigit(text[i+n]) {
		n++
	}
	return n
}

// at reports whether text[i] is c.
func at(text string, i int, c byte) bool { return i < len(text) && text[i] == c }

// skipSpace returns i past one \s, if text[i] is one.
func skipSpace(text string, i int) int {
	if i < len(text) && isSpace(text[i]) {
		return i + 1
	}
	return i
}

// decimals returns i past `\.\d+` when that starts at text[i], else i.
func decimals(text string, i int) int {
	if at(text, i, '.') && i+1 < len(text) && isDigit(text[i+1]) {
		return i + 1 + digits(text, i+1)
	}
	return i
}

// isThousands reports whether `,\d{3}` starts at text[i].
func isThousands(text string, i int) bool {
	return at(text, i, ',') && i+3 < len(text) && isDigit(text[i+1]) && isDigit(text[i+2]) && isDigit(text[i+3])
}

// urlAt: \bhttps?://[^\s"']+|\bwww\.[^\s"']+
func urlAt(text string, i int) int {
	var rest int
	switch s := text[i:]; {
	case strings.HasPrefix(s, "https://"):
		rest = i + len("https://")
	case strings.HasPrefix(s, "http://"):
		rest = i + len("http://")
	case strings.HasPrefix(s, "www."):
		rest = i + len("www.")
	default:
		return -1
	}
	// "https://" with nothing after it fails both ways: "http" then "://"
	// cannot match "s:/".
	end := rest
	for end < len(text) && !isSpace(text[end]) && text[end] != '"' && text[end] != '\'' {
		end++
	}
	if end == rest || !boundary(text, i) {
		return -1
	}
	return end
}

// priceAt: \$\s?\d{1,4}(?:\.\d{2})?\b
//
// A fifth digit, or fewer than all of the digits, leaves a digit next to the
// boundary, so only a run of one to four digits matches.
func priceAt(text string, i int) int {
	if text[i] != '$' {
		return -1
	}
	j := skipSpace(text, i+1)
	n := digits(text, j)
	if n == 0 || n > 4 {
		return -1
	}
	j += n
	if at(text, j, '.') && digits(text, j+1) >= 2 && boundary(text, j+3) {
		return j + 3
	}
	if boundary(text, j) {
		return j
	}
	return -1
}

// moneyAt: \$\s?\d{1,3}(?:,\d{3})*(?:\.\d+)?|\b\d{1,3}(?:,\d{3})+(?:\.\d+)?\b
func moneyAt(text string, i int) int {
	if text[i] == '$' {
		// Nothing follows the greedy parts, so the first try matches.
		j := skipSpace(text, i+1)
		n := digits(text, j)
		if n == 0 {
			return -1
		}
		j += min(n, 3)
		for isThousands(text, j) {
			j += 4
		}
		return decimals(text, j)
	}
	if !isDigit(text[i]) || !boundary(text, i) {
		return -1
	}
	n := digits(text, i)
	if n > 3 || !isThousands(text, i+n) {
		return -1
	}
	j, groups := i+n, 0
	for isThousands(text, j) {
		j += 4
		groups++
	}
	if d := decimals(text, j); d > j && boundary(text, d) {
		return d
	}
	if boundary(text, j) {
		return j
	}
	// One group fewer ends before a comma, a boundary after a digit.
	if groups > 1 {
		return j - 4
	}
	return -1
}

// dateAt: \b\d{1,2}/\d{1,2}/\d{4}\b|\b\d{4}-\d{2}-\d{2}\b
func dateAt(text string, i int) int {
	if !isDigit(text[i]) || !boundary(text, i) {
		return -1
	}
	var j int
	switch n := digits(text, i); n {
	case 1, 2:
		j = i + n + 1
		m := digits(text, j)
		if !at(text, j-1, '/') || m == 0 || m > 2 || !at(text, j+m, '/') || digits(text, j+m+1) < 4 {
			return -1
		}
		j += m + 1 + 4
	case 4:
		j = i + 4
		if !at(text, j, '-') || digits(text, j+1) != 2 || !at(text, j+3, '-') || digits(text, j+4) < 2 {
			return -1
		}
		j += 6
	default:
		return -1
	}
	if !boundary(text, j) {
		return -1
	}
	return j
}

// percentAt: \b\d{1,3} percent\b|\b\d{1,3}%
func percentAt(text string, i int) int {
	if !isDigit(text[i]) || !boundary(text, i) {
		return -1
	}
	n := digits(text, i)
	if n > 3 {
		return -1
	}
	j := i + n
	if strings.HasPrefix(text[j:], " percent") && boundary(text, j+len(" percent")) {
		return j + len(" percent")
	}
	if at(text, j, '%') {
		return j + 1
	}
	return -1
}

// scheduleAt: (?i)\b(?:mon|tue|tues|wed|thu|thurs|fri|sat|sun)[a-z]*\.?(?:-(?:mon|tue|tues|wed|thu|thurs|fri|sat|sun)[a-z]*\.?)? at \d{1,2}(?::\d{2})?\s?(?:am|pm)\b
//
// Under (?i) a letter matches either case, and 's' and 'k' also match their
// other simple folds, 'ſ' (U+017F) and the Kelvin sign 'K' (U+212A); neither
// is a word character for \b. [a-z]* after a day stops at a character that
// is not a letter, and only the greedy choice can go on: a shorter run
// leaves a letter where '.', '-' or ' ' must follow, and the tues and
// thurs alternatives are tue and thu with one more letter of that run. The
// same holds for every other quantifier here, so the scan never backtracks.
func scheduleAt(text string, i int) int {
	j := dayAt(text, i)
	if j < 0 || !boundary(text, i) {
		return -1
	}
	j = skipDot(text, skipLetters(text, j))
	if at(text, j, '-') {
		if j = dayAt(text, j+1); j < 0 {
			return -1
		}
		j = skipDot(text, skipLetters(text, j))
	}
	if !at(text, j, ' ') || foldAt(text, j+1) != 'a' || foldAt(text, j+2) != 't' || !at(text, j+3, ' ') {
		return -1
	}
	j += 4
	n := digits(text, j)
	if n == 0 || n > 2 {
		return -1
	}
	j += n
	if at(text, j, ':') {
		if digits(text, j+1) < 2 {
			return -1
		}
		j += 3
	}
	j = skipSpace(text, j)
	if c := foldAt(text, j); (c != 'a' && c != 'p') || foldAt(text, j+1) != 'm' || !boundary(text, j+2) {
		return -1
	}
	return j + 2
}

// days are the three-letter day prefixes of scheduleAt.
var days = [...]string{"mon", "tue", "wed", "thu", "fri", "sat", "sun"}

// dayAt returns the end of a day prefix that starts at text[i], or -1.
func dayAt(text string, i int) int {
	var got [3]byte
	j := i
	for k := range got {
		c, w := foldLetter(text, j)
		if w == 0 {
			return -1
		}
		got[k], j = c, j+w
	}
	for _, d := range days {
		if string(got[:]) == d {
			return j
		}
	}
	return -1
}

// skipLetters returns i past the run of (?i)[a-z] that starts at text[i].
func skipLetters(text string, i int) int {
	for {
		_, w := foldLetter(text, i)
		if w == 0 {
			return i
		}
		i += w
	}
}

// skipDot returns i past `\.?`.
func skipDot(text string, i int) int {
	if at(text, i, '.') {
		return i + 1
	}
	return i
}

// foldLetter reads the (?i)[a-z] letter at text[i]: its lower-case ASCII
// form and its width in bytes, or width 0 when text[i] starts none.
func foldLetter(text string, i int) (byte, int) {
	if i >= len(text) {
		return 0, 0
	}
	switch c := text[i]; {
	case 'a' <= c && c <= 'z':
		return c, 1
	case 'A' <= c && c <= 'Z':
		return c + 'a' - 'A', 1
	case strings.HasPrefix(text[i:], "\u017f"): // ſ
		return 's', len("\u017f")
	case strings.HasPrefix(text[i:], "\u212a"): // Kelvin sign
		return 'k', len("\u212a")
	}
	return 0, 0
}

// foldAt is the ASCII letter at text[i] in lower case, for the literals of
// scheduleAt that have no fold outside ASCII, or 0.
func foldAt(text string, i int) byte {
	if c, w := foldLetter(text, i); w == 1 {
		return c
	}
	return 0
}
