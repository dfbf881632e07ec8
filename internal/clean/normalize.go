// Package clean implements Data Tamer's data-cleaning and transformation
// modules: money, date and whitespace normalizers, missing-value
// standardization, and a rule-driven transformation engine (the paper's
// example: translating euros into dollars).
package clean

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/record"
)

var moneyRe = regexp.MustCompile(`^\s*([$€£])?\s*(\d{1,3}(?:,\d{3})*|\d+)(\.\d+)?\s*(USD|EUR|GBP|dollars?|euros?|pounds?)?\s*$`)

// Money is a parsed monetary value.
type Money struct {
	Amount   float64
	Currency string // ISO code: USD, EUR, GBP
}

// mayBeIn reports whether the money string s may be in the ISO currency:
// whether it holds the currency's symbol, its code or the word ParseMoney
// reads as it. Money that holds none of them is in another currency or in
// none, and only EUR, USD and GBP can be ruled out this way.
func mayBeIn(s, currency string) bool {
	var symbol, word string
	switch currency {
	case "EUR":
		symbol, word = "€", "euro"
	case "USD":
		symbol, word = "$", "dollar"
	case "GBP":
		symbol, word = "£", "pound"
	default:
		return true
	}
	return strings.Contains(s, symbol) || strings.Contains(s, currency) || strings.Contains(s, word)
}

// ParseMoney parses strings like "$27", "1,234.50 USD", "€ 30", "45 euros".
func ParseMoney(s string) (Money, error) {
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

// String renders the money value canonically ("$27.00", "€30.00").
func (m Money) String() string {
	symbol := map[string]string{"USD": "$", "EUR": "€", "GBP": "£"}[m.Currency]
	if symbol == "" {
		return strconv.FormatFloat(m.Amount, 'f', 2, 64)
	}
	return symbol + strconv.FormatFloat(m.Amount, 'f', 2, 64)
}

// isoDate is the layout dates are normalized to.
const isoDate = "2006-01-02"

// NormalizeDate parses the supported date layouts and renders ISO 8601
// (2006-01-02). A date already so written is returned as it is.
func NormalizeDate(s string) (string, error) {
	t, err := record.ParseTime(s)
	if err != nil {
		return "", fmt.Errorf("%w %q", err, s)
	}
	var buf [len(isoDate)]byte
	iso := t.AppendFormat(buf[:0], isoDate)
	if string(iso) == s {
		return s, nil
	}
	return string(iso), nil
}

// NormalizeWhitespace collapses runs of whitespace and trims. A string that
// is already so is returned as it is.
func NormalizeWhitespace(s string) string {
	if isCollapsed(s) {
		return s
	}
	return strings.Join(strings.Fields(s), " ")
}

// isCollapsed reports whether s is its strings.Fields joined by single
// spaces: no white space but ' ', none at either end, none doubled.
func isCollapsed(s string) bool {
	space := true // a space here would lead s or double one
	for _, r := range s {
		if !unicode.IsSpace(r) {
			space = false
			continue
		}
		if r != ' ' || space {
			return false
		}
		space = true
	}
	return !space || s == ""
}
