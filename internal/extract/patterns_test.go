package extract

import (
	"regexp"
	"slices"
	"testing"
)

// The expressions the scanners of patterns.go replaced, verbatim: the
// oracle they are compared with.
var (
	urlRe      = regexp.MustCompile(`\bhttps?://[^\s"']+|\bwww\.[^\s"']+`)
	moneyRe    = regexp.MustCompile(`\$\s?\d{1,3}(?:,\d{3})*(?:\.\d+)?|\b\d{1,3}(?:,\d{3})+(?:\.\d+)?\b`)
	priceRe    = regexp.MustCompile(`\$\s?\d{1,4}(?:\.\d{2})?\b`)
	dateRe     = regexp.MustCompile(`\b\d{1,2}/\d{1,2}/\d{4}\b|\b\d{4}-\d{2}-\d{2}\b`)
	scheduleRe = regexp.MustCompile(`(?i)\b(?:mon|tue|tues|wed|thu|thurs|fri|sat|sun)[a-z]*\.?(?:-(?:mon|tue|tues|wed|thu|thurs|fri|sat|sun)[a-z]*\.?)? at \d{1,2}(?::\d{2})?\s?(?:am|pm)\b`)
	percentRe  = regexp.MustCompile(`\b\d{1,3} percent\b|\b\d{1,3}%`)
)

var scannerOracles = []struct {
	name string
	scan scanner
	re   *regexp.Regexp
}{
	{"url", urlAt, urlRe},
	{"money", moneyAt, moneyRe},
	{"price", priceAt, priceRe},
	{"date", dateAt, dateRe},
	{"schedule", scheduleAt, scheduleRe},
	{"percent", percentAt, percentRe},
}

// findAll returns every non-overlapping match of scan, as
// FindAllStringIndex does.
func findAll(text string, scan scanner) [][]int {
	var out [][]int
	for from := 0; ; {
		start, end := find(text, from, scan)
		if start < 0 {
			return out
		}
		out = append(out, []int{start, end})
		from = end
	}
}

func checkPatterns(t *testing.T, text string) {
	t.Helper()
	for _, o := range scannerOracles {
		var got []int
		if start, end := find(text, 0, o.scan); start >= 0 {
			got = []int{start, end}
		}
		if want := o.re.FindStringIndex(text); !slices.Equal(got, want) {
			t.Fatalf("%s: first match in %q at %v, regexp %v", o.name, text, got, want)
		}
		all, want := findAll(text, o.scan), o.re.FindAllStringIndex(text, -1)
		if !slices.EqualFunc(all, want, slices.Equal) {
			t.Fatalf("%s: matches in %q at %v, regexp %v", o.name, text, all, want)
		}
	}
}

// patternSeeds try each pattern's alternatives, boundaries and folds.
var patternSeeds = []string{
	"",
	`Tickets from $27 at http://broadway.example.com start 3/4/2013, Tues at 7pm, grossed 960,998 or 93 percent.`,
	"Matilda tickets from $27, first performance 3/4/2013, Tues at 7pm.",
	"ſat at 5pm", "xſat at 5pm", "Tues at 7PM", "TUES-THURS. at 10:30 pm", "Mon.-Fri at 8 AM",
	"sunday at 12:00pmx", "Sat\u212a at 5pm", "ſun\u212a. at 1\tAM", "wed at 7:3pm", "thu at 123pm", "fri at 7 ampm",
	"1,2345", "1,234,567x", "1,234,567.89", "1,234.5x", "$ 1,234,567.891", "$1234", "$  5", "12,34",
	"$27.50", "$27.505", "$27.5x", "$12345", "$1.99x", "$ 9.99.",
	"3/4/20131", "12/31/1999", "123/4/2013", "2013-03-04", "2013-03-041", "x2013-03-04", "1/22/2013a",
	"93 percent", "93 percentage", "1000%", "5%x", "_5%",
	"https://", "https:// x", "http://a.b/c?d=e\"f", "wwww.x", "see www.example.org/'quoted'", "xhttp://a",
	"İ", "ÀB", "bad \xff byte $5 \xc5 at 5pm \xe2\x84",
}

func TestPatternsMatchRegexp(t *testing.T) {
	for _, text := range patternSeeds {
		checkPatterns(t, text)
	}
}

func FuzzPatternsMatchRegexp(f *testing.F) {
	for _, text := range patternSeeds {
		f.Add(text)
	}
	f.Fuzz(checkPatterns)
}
