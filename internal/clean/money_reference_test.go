package clean

// scanMoney against the regular expression it replaced, and ParseMoney
// against its body over that expression, verbatim but for its name.

import (
	"fmt"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var moneyRe = regexp.MustCompile(`^\s*([$€£])?\s*(\d{1,3}(?:,\d{3})*|\d+)(\.\d+)?\s*(USD|EUR|GBP|dollars?|euros?|pounds?)?\s*$`)

func referenceParseMoney(s string) (Money, error) {
	m := moneyRe.FindStringSubmatch(s)
	if m == nil {
		return Money{}, fmt.Errorf("clean: unparseable money %q", s)
	}
	numeric := strings.ReplaceAll(m[2], ",", "") + m[3]
	amount, err := strconv.ParseFloat(numeric, 64)
	if err != nil {
		return Money{}, fmt.Errorf("clean: money amount %q: %v", s, err)
	}
	currency := "USD"
	switch m[1] {
	case "€":
		currency = "EUR"
	case "£":
		currency = "GBP"
	}
	switch strings.ToUpper(strings.TrimSuffix(strings.ToLower(m[4]), "s")) {
	case "EUR", "EURO":
		currency = "EUR"
	case "GBP", "POUND":
		currency = "GBP"
	case "USD", "DOLLAR":
		currency = "USD"
	}
	if m[1] == "" && m[4] == "" {
		currency = ""
	}
	return Money{Amount: amount, Currency: currency}, nil
}

func checkMoney(t *testing.T, s string) {
	t.Helper()
	var want []string
	if m := moneyRe.FindStringSubmatch(s); m != nil {
		want = m[1:]
	}
	var got []string
	if m, ok := scanMoney(s); ok {
		got = []string{m.symbol, m.amount, m.frac, m.suffix}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scanMoney(%q) = %q, regexp groups %q", s, got, want)
	}
	gm, gerr := ParseMoney(s)
	wm, werr := referenceParseMoney(s)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) || gm != wm {
		t.Fatalf("ParseMoney(%q) = %v, %v; reference %v, %v", s, gm, gerr, wm, werr)
	}
}

// moneyCases are near misses around every part of the expression: white
// space of each kind and \v, which \s does not hold; each symbol, and
// bytes that begin one; amounts with commas in and out of place; a dot with
// and without digits; suffixes in other cases, doubled or split; and
// non-ASCII digits and spaces.
var moneyCases = []string{
	"", " ", "$", "€", "£", "\xe2\x82", "\xc2", "$27", " $ 27 ", "\t$\n27\r\f", "\v27", "27\v", "27",
	"1,234", "1,234,567.89", "12,345", "123,456", "1234,567", ",123", "1,23", "1,2345", "1,2345678", "1,,234", "1,234,",
	"0001", "1.", "1.5", ".5", "1.5.5", "1..5", "1,234.50 USD", "27USD", "27 USD", "27 usd", "27 USD USD",
	"45 euros", "45 euro", "45 euross", "12 pounds", "12 pound", "3 dollars", "3 dollar", "3 Dollars", "3 dollar s",
	"€ 30", "£30 GBP", "$27 EUR", "$$27", "27$", "٣", "27 USD", " 27", "1" + strings.Repeat(",000", 40),
}

func TestScanMoneyMatchesRegexp(t *testing.T) {
	for _, s := range moneyCases {
		checkMoney(t, s)
	}
}

// FuzzScanMoneyMatchesRegexp: on any string, scanMoney matches where the
// expression does, with its four groups, and ParseMoney returns what it did.
func FuzzScanMoneyMatchesRegexp(f *testing.F) {
	for _, s := range moneyCases {
		f.Add(s)
	}
	f.Fuzz(checkMoney)
}
