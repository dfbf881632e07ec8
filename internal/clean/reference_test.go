package clean

// The transforms against their bodies before they learned to leave a clean
// value without allocating: the screens (isCollapsed, isNullSpelling,
// mayBeIn, NormalizeDate's compare) exist only to spare work, and must never
// change a value, an error or whether a value counts as rewritten.

import (
	"strings"
	"testing"

	"repro/internal/record"
)

func referenceNormalizeWhitespace(s string) string {
	return strings.Join(strings.Fields(s), " ")
}

func referenceNullStandardize(v record.Value) record.Value {
	if v.Kind() == record.KindString && nullSpellings[strings.ToLower(strings.TrimSpace(v.Str()))] {
		return record.Null
	}
	return v
}

func referenceCurrencyConvert(c CurrencyConvert, v record.Value) (record.Value, error) {
	m, err := ParseMoney(v.Str())
	if err != nil {
		return v, err
	}
	if m.Currency != c.From {
		return v, nil
	}
	converted := Money{Amount: m.Amount * c.Rate, Currency: c.To}
	return record.String(converted.String()), nil
}

func referenceDateTransform(v record.Value) (record.Value, error) {
	t, err := record.ParseTime(v.Str())
	if err != nil {
		return v, err
	}
	return record.String(t.Format("2006-01-02")), nil
}

// transformCases are near misses around every screen: white space of every
// kind, null spellings in any case and with runes that lower-case to ASCII,
// money in and out of each currency, and dates already ISO or not.
var transformCases = []string{
	"", " ", "a", "a b", " a", "a ", "a  b", "a\tb", "a b", "a b", "\u0085", "New York", " New  York ",
	"n/a", "N/A", " none ", "NONE", "Unknown", "UNKNOWN", "unKnown", "-", "--", "?", "TBD", "missing", "MISSINGS", "nil", "nİl",
	"$27", "$27.00", "€10", "€ 30", "£30", "45 euros", "45 EUR", "45 eur", "45 dollars", "45 USD", "12 pounds", "12 GBP",
	"1,234.50 USD", "27", "27.5", "call for pricing", "$", "1,23", "$" + strings.Repeat("9", 320), strings.Repeat("9", 299),
	"2013-03-04", " 2013-03-04 ", "2013-03-04T19:30:00Z", "3/4/2013", "03/04/2013", "Mar 4, 2013", "4 Mar 2013", "2013-02-30",
}

func checkTransforms(t *testing.T, s string) {
	t.Helper()
	if got, want := NormalizeWhitespace(s), referenceNormalizeWhitespace(s); got != want {
		t.Errorf("NormalizeWhitespace(%q) = %q, reference %q", s, got, want)
	}
	v := record.String(s)
	if got, _ := (NullStandardize{}).Apply(v); !sameValue(got, referenceNullStandardize(v)) {
		t.Errorf("NullStandardize(%q) = %v", s, got)
	}
	for _, from := range []string{"EUR", "USD", "GBP", ""} {
		c := CurrencyConvert{From: from, To: "USD", Rate: 1.3}
		got, err := c.Apply(v)
		want, wantErr := referenceCurrencyConvert(c, v)
		if !sameValue(got, want) || (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Errorf("CurrencyConvert from %q of %q = %v, %v; reference %v, %v", from, s, got, err, want, wantErr)
		}
	}
	got, err := DateTransform{}.Apply(v)
	want, wantErr := referenceDateTransform(v)
	if !sameValue(got, want) || (err == nil) != (wantErr == nil) {
		t.Errorf("DateTransform(%q) = %v, %v; reference %v, %v", s, got, err, want, wantErr)
	}
}

// sameValue compares kinds and renderings: what Cleaner.Apply looks at.
func sameValue(a, b record.Value) bool { return a.Kind() == b.Kind() && a.Str() == b.Str() }

func TestTransformsMatchReference(t *testing.T) {
	for _, s := range transformCases {
		checkTransforms(t, s)
	}
}

func FuzzTransformsMatchReference(f *testing.F) {
	for _, s := range transformCases {
		f.Add(s)
	}
	f.Fuzz(checkTransforms)
}
