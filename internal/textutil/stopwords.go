package textutil

import "strings"

// stopwords is the English stopword list used by mention counting and
// schema-matching tokenizers.
var stopwords = map[string]bool{}

func init() {
	for _, w := range strings.Fields(`
		a an and are as at be been but by for from has have he her his i if in
		into is it its me my no not of on or our she so than that the their
		them then there these they this to was we were what when where which
		who will with would you your`) {
		stopwords[w] = true
	}
}

// ContentWords tokenizes text, lower-cases, and drops stopwords and
// single-character tokens.
func ContentWords(text string) []string {
	var buf [smallTokens]Token
	tokens := AppendTokens(buf[:0], text)
	n := 0 // the kept words, lower-cased, move to the front of tokens
	for _, t := range tokens {
		if lw := strings.ToLower(t.Text); len(lw) > 1 && !stopwords[lw] {
			tokens[n].Text = lw
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = tokens[i].Text
	}
	return out
}
