package textutil

import (
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// sentences collects what NextSentence walks.
func sentences(text string) []string {
	var out []string
	for sent, rest := NextSentence(text); sent != ""; sent, rest = NextSentence(rest) {
		out = append(out, sent)
	}
	return out
}

// sentencesReference is the body the slice-returning sentence splitter had
// before it stopped building rune and byte-offset tables. It is only right for valid UTF-8: an invalid
// byte is one rune but was charged three bytes, so its offsets drift (and
// can run off the end of text).
func sentencesReference(text string) []string {
	var out []string
	start := 0
	runes := []rune(text)
	byteAt := make([]int, len(runes)+1)
	{
		b := 0
		for i, r := range runes {
			byteAt[i] = b
			b += len(string(r))
		}
		byteAt[len(runes)] = b
	}
	for i := 0; i < len(runes); i++ {
		r := runes[i]
		if r != '.' && r != '!' && r != '?' {
			continue
		}
		j := i + 1
		for j < len(runes) && unicode.IsSpace(runes[j]) {
			j++
		}
		if j == i+1 || j >= len(runes) {
			continue
		}
		next := runes[j]
		if !unicode.IsUpper(next) && !unicode.IsDigit(next) && next != '"' && next != '\'' {
			continue
		}
		if r == '.' && i >= 1 && unicode.IsUpper(runes[i-1]) && (i < 2 || !unicode.IsLetter(runes[i-2])) {
			continue
		}
		sent := strings.TrimSpace(text[byteAt[start]:byteAt[i+1]])
		if sent != "" {
			out = append(out, sent)
		}
		start = j
	}
	if rest := strings.TrimSpace(text[byteAt[start]:]); rest != "" {
		out = append(out, rest)
	}
	return out
}

var sentenceSeeds = []string{
	"",
	"no terminal punctuation here",
	"Matilda grossed 960,998. The show runs at the Shubert on W. 44th St. Tickets start at $27!",
	"One.  Two!\n\t3 is next? \"Quoted\" follows. 'single' too.",
	"A. B. C. Done.",
	"U.S. Open. É. Ünïcode stays. Ça va? Été arrive.",
	"trailing dot. ",
	". . . Leading",
	"end. Non-breaking space.  Em space.",
	"x.Y no space! z",
}

func TestSentencesMatchesReference(t *testing.T) {
	for _, text := range sentenceSeeds {
		checkSentences(t, text)
	}
}

func checkSentences(t *testing.T, text string) {
	t.Helper()
	got := sentences(text)
	if !utf8.ValidString(text) {
		// No reference; the pieces must still be trimmed, non-empty
		// substrings of text in order.
		rest := text
		for _, s := range got {
			i := strings.Index(rest, s)
			if s == "" || s != strings.TrimSpace(s) || i < 0 {
				t.Fatalf("sentences(%q) = %q: %q is not a trimmed piece of the remaining text", text, got, s)
			}
			rest = rest[i+len(s):]
		}
		return
	}
	want := sentencesReference(text)
	if len(got) != len(want) {
		t.Fatalf("sentences(%q) = %q, reference %q", text, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sentences(%q)[%d] = %q, reference %q", text, i, got[i], want[i])
		}
	}
}

func FuzzSentencesMatchesReference(f *testing.F) {
	for _, s := range sentenceSeeds {
		f.Add(s)
	}
	f.Add("bad \xff byte. Next one\xc3. End")
	f.Fuzz(checkSentences)
}

// Walking a three-sentence fragment allocates nothing: every sentence is a
// substring of it.
func TestSentencesAllocBudget(t *testing.T) {
	text := sentenceSeeds[2]
	var n, bytes int
	allocs := testing.AllocsPerRun(100, func() {
		n, bytes = 0, 0
		for sent, rest := NextSentence(text); sent != ""; sent, rest = NextSentence(rest) {
			n++
			bytes += len(sent)
		}
	})
	if allocs != 0 || n != 3 || bytes == 0 {
		t.Errorf("walking %d sentences (%d B) allocates %.0f times, budget 0", n, bytes, allocs)
	}
}

func foldReference(s, substr string) (bool, int) {
	ls, lsub := strings.ToLower(s), strings.ToLower(substr)
	return strings.Contains(ls, lsub), strings.Count(ls, lsub)
}

var foldSeeds = [][2]string{
	{"", ""},
	{"abc", ""},
	{"", "a"},
	{"The Walking Dead", "walking"},
	{"The Walking Dead", "WALKING d"},
	{"aaaa", "aa"},
	{"aAaAa", "Aa"},
	{"İstanbul", "i"},       // U+0130 lowers to plain i
	{"istanbul", "İ"},       // and so matches it
	{"ſtrasse", "s"},        // long s is already lower: no match
	{"STRASSE", "ſ"},        // and nothing lowers to it
	{"273 K", "k"},          // Kelvin sign lowers to k
	{"273 k", "K"},          // both directions
	{"ÀÉÎ õ", "àéî Õ"},      // Latin-1 folding
	{"ΣΑΣ σας", "σ"},        // final sigma ς is not σ
	{"bad\xffbyte", "\xff"}, // an invalid byte reads as U+FFFD ...
	{"bad\xffbyte", "�"},
	{"bad�byte", "\xfe"}, // ... so any invalid byte matches any other
	{"\xc3", "\xc3\xa9"}, // truncated é
	{"ab", "abc"},
	{"xabcabcabc", "ABCABC"},
}

func checkFold(t *testing.T, s, substr string) {
	t.Helper()
	wantHas, wantN := foldReference(s, substr)
	if got := ContainsFold(s, substr); got != wantHas {
		t.Fatalf("ContainsFold(%q, %q) = %v, reference %v", s, substr, got, wantHas)
	}
	if got := CountFold(s, substr); got != wantN {
		t.Fatalf("CountFold(%q, %q) = %d, reference %d", s, substr, got, wantN)
	}
	for _, x := range [2]string{s, substr} {
		if got, want := string(AppendLower([]byte("pre"), x)), "pre"+strings.ToLower(x); got != want {
			t.Fatalf("AppendLower(%q) = %q, strings.ToLower %q", x, got, want)
		}
	}
}

func TestContainsFoldMatchesReference(t *testing.T) {
	for _, c := range foldSeeds {
		checkFold(t, c[0], c[1])
	}
}

func FuzzContainsFoldMatchesReference(f *testing.F) {
	for _, c := range foldSeeds {
		f.Add(c[0], c[1])
	}
	f.Fuzz(checkFold)
}

func TestFoldAllocBudget(t *testing.T) {
	s := "Matilda, an Award-Winning import from London, GROSSED 960,998"
	var has bool
	var n int
	allocs := testing.AllocsPerRun(100, func() {
		has = ContainsFold(s, "Award-winning") && !ContainsFold(s, "walking")
		n = CountFold(s, "grossed")
	})
	if allocs != 0 || !has || n != 1 {
		t.Errorf("fold search: %.0f allocs (budget 0), has=%v n=%d", allocs, has, n)
	}
}
