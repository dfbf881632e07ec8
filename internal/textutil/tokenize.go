// Package textutil provides the text-processing primitives the fusion
// pipeline builds on: tokenization, sentence splitting, normalization,
// stopword filtering, Porter stemming and n-gram extraction.
package textutil

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Token is a single token with its byte offset in the original text.
type Token struct {
	Text  string
	Start int // byte offset of the first byte
	End   int // byte offset one past the last byte
}

// Tokenize splits text into word tokens. A token is a maximal run of
// letters, digits, or the intra-word punctuation ' . - & (so "O'Brien",
// "U.S." and "AT&T" stay whole); trailing punctuation is stripped.
func Tokenize(text string) []Token { return AppendTokens(nil, text) }

// AppendTokens appends the tokens of text, as Tokenize splits it, to dst
// and returns the extended slice. A token's Text is a substring of text, so
// a caller that reuses dst allocates nothing once it is large enough.
func AppendTokens(dst []Token, text string) []Token {
	start := -1
	for i, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) || ((r == '\'' || r == '.' || r == '-' || r == '&') && start >= 0) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			dst = appendToken(dst, text, start, i)
			start = -1
		}
	}
	if start >= 0 {
		dst = appendToken(dst, text, start, len(text))
	}
	return dst
}

// appendToken appends text[start:end] without its trailing punctuation.
// The run starts with a letter or digit, so something is always left.
func appendToken(dst []Token, text string, start, end int) []Token {
	trimmed := strings.TrimRight(text[start:end], "'.-&")
	return append(dst, Token{Text: trimmed, Start: start, End: start + len(trimmed)})
}

// smallTokens is how many tokens Words and ContentWords collect on the
// stack before AppendTokens moves them to the heap: an attribute name or a
// short value fits.
const smallTokens = 16

// Words returns just the token texts of Tokenize(text).
func Words(text string) []string {
	var buf [smallTokens]Token
	tokens := AppendTokens(buf[:0], text)
	words := make([]string, len(tokens))
	for i, t := range tokens {
		words[i] = t.Text
	}
	return words
}

// Sentences splits text into sentences on ., !, ? followed by whitespace and
// an upper-case letter, digit, or quote — a pragmatic splitter that survives
// abbreviations like "W. 44th St" better than naive splitting.
func Sentences(text string) []string {
	// A fragment is a few sentences; room for four skips the 1-2-4 growth.
	out := make([]string, 0, 4)
	start := 0
	var prev, prev2 rune // the two runes before text[i:], once seen says they exist
	seen := 0
	for i := 0; i < len(text); seen++ {
		r, w := utf8.DecodeRuneInString(text[i:])
		end := i + w
		if r == '.' || r == '!' || r == '?' {
			// Look ahead: whitespace then sentence-initial character.
			j := end
			var next rune
			for j < len(text) {
				var nw int
				if next, nw = utf8.DecodeRuneInString(text[j:]); !unicode.IsSpace(next) {
					break
				}
				j += nw
			}
			initial := j > end && j < len(text) &&
				(unicode.IsUpper(next) || unicode.IsDigit(next) || next == '"' || next == '\'')
			// Avoid splitting single-letter abbreviations like "W. 44th".
			abbrev := r == '.' && seen >= 1 && unicode.IsUpper(prev) && (seen < 2 || !unicode.IsLetter(prev2))
			if initial && !abbrev {
				if sent := strings.TrimSpace(text[start:end]); sent != "" {
					out = append(out, sent)
				}
				start = j
			}
		}
		prev2, prev = prev, r
		i = end
	}
	if rest := strings.TrimSpace(text[start:]); rest != "" {
		out = append(out, rest)
	}
	return out
}

// Normalize lower-cases s, strips diacritic-free punctuation and collapses
// whitespace — the canonical form used for value matching.
func Normalize(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	lastSpace := true
	for _, r := range strings.ToLower(s) {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(r)
			lastSpace = false
		case !lastSpace:
			b.WriteByte(' ')
			lastSpace = true
		}
	}
	return strings.TrimSpace(b.String())
}

// NGrams returns the n-grams of the word sequence joined by spaces.
// It returns nil when len(words) < n or n <= 0.
func NGrams(words []string, n int) []string {
	if n <= 0 || len(words) < n {
		return nil
	}
	out := make([]string, 0, len(words)-n+1)
	for i := 0; i+n <= len(words); i++ {
		out = append(out, strings.Join(words[i:i+n], " "))
	}
	return out
}

// CharNGrams returns the character n-grams of s (runes, not bytes), padding
// with no sentinels. It returns nil when the rune length is below n.
func CharNGrams(s string, n int) []string {
	runes := []rune(s)
	if n <= 0 || len(runes) < n {
		return nil
	}
	out := make([]string, 0, len(runes)-n+1)
	for i := 0; i+n <= len(runes); i++ {
		out = append(out, string(runes[i:i+n]))
	}
	return out
}
