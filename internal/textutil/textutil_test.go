package textutil

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	toks := AppendTokens(nil, "Matilda, an award-winning import from London!")
	want := []string{"Matilda", "an", "award-winning", "import", "from", "London"}
	if len(toks) != len(want) {
		t.Fatalf("tokens = %v", toks)
	}
	for i, w := range want {
		if toks[i].Text != w {
			t.Errorf("token %d = %q, want %q", i, toks[i].Text, w)
		}
	}
}

func TestTokenizeOffsets(t *testing.T) {
	text := "The Shubert 225"
	for _, tok := range AppendTokens(nil, text) {
		if text[tok.Start:tok.End] != tok.Text {
			t.Errorf("offset mismatch: %q vs %q", text[tok.Start:tok.End], tok.Text)
		}
	}
}

func TestTokenizeIntraWordPunct(t *testing.T) {
	var words []string
	for _, tok := range AppendTokens(nil, "O'Brien met U.S. officials at AT&T.") {
		words = append(words, tok.Text)
	}
	joined := strings.Join(words, "|")
	for _, want := range []string{"O'Brien", "U.S", "AT&T"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing %q in %v", want, words)
		}
	}
}

func TestTokenizeEmpty(t *testing.T) {
	if got := AppendTokens(nil, ""); len(got) != 0 {
		t.Errorf("AppendTokens(nil, \"\") = %v", got)
	}
	if got := AppendTokens(nil, "  ,,, !!"); len(got) != 0 {
		t.Errorf("punct only = %v", got)
	}
}

func TestSentences(t *testing.T) {
	text := "Matilda grossed 960,998. The show runs at the Shubert on W. 44th St. Tickets start at $27!"
	sents := sentences(text)
	if len(sents) != 3 {
		t.Fatalf("sentences = %d: %q", len(sents), sents)
	}
	if !strings.HasPrefix(sents[1], "The show") {
		t.Errorf("sentence 2 = %q", sents[1])
	}
	// "W. 44th" must not split (single-letter abbreviation guard).
	if !strings.Contains(sents[1], "44th") {
		t.Errorf("abbreviation split: %q", sents)
	}
}

func TestSentencesNoTerminator(t *testing.T) {
	sents := sentences("no terminal punctuation here")
	if len(sents) != 1 {
		t.Errorf("sentences = %v", sents)
	}
}

func TestNormalize(t *testing.T) {
	cases := map[string]string{
		"The  Walking Dead!": "the walking dead",
		"Shubert, 225 W.":    "shubert 225 w",
		"":                   "",
		"---":                "",
	}
	for in, want := range cases {
		if got := Normalize(in); got != want {
			t.Errorf("Normalize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStopwords(t *testing.T) {
	words := ContentWords("THE Matilda show is a hit, the end")
	joined := strings.Join(words, "|")
	if strings.Contains(joined, "the") || strings.Contains(joined, "is") {
		t.Errorf("stopwords survived: %v", words)
	}
	if !strings.Contains(joined, "matilda") {
		t.Errorf("content word lost: %v", words)
	}
}

func TestQuickNormalizeIdempotent(t *testing.T) {
	f := func(s string) bool {
		once := Normalize(s)
		return Normalize(once) == once
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: count of n-grams is len(words)-n+1.
