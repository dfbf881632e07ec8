// Package clean implements Data Tamer's data-cleaning and transformation
// modules: money, date and whitespace normalizers, missing-value
// standardization, and a rule-driven transformation engine (the paper's
// example: translating euros into dollars).
package clean

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/record"
)

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

// moneyParts are the parts of a money string: its currency symbol, its
// whole amount (digits and thousands commas), its fraction with the dot,
// and its suffix word. Only the amount is never empty.
type moneyParts struct {
	symbol, amount, frac, suffix string
}

// scanMoney reads s as the expression
//
//	^\s*([$€£])?\s*(\d{1,3}(?:,\d{3})*|\d+)(\.\d+)?\s*(USD|EUR|GBP|dollars?|euros?|pounds?)?\s*$
//
// does in Go's regexp, giving its four groups in order, and reports whether
// s matches. As there, \s is ASCII white space but \v, \d an ASCII digit,
// and the suffixes are case-sensitive. Nothing that may follow the amount
// starts with a digit or a comma, so the amount is the whole run of digits
// and commas, whichever alternative reads it.
func scanMoney(s string) (m moneyParts, ok bool) {
	i := skipMoneySpace(s, 0)
	for _, symbol := range [...]string{"$", "€", "£"} {
		if strings.HasPrefix(s[i:], symbol) {
			m.symbol, i = symbol, i+len(symbol)
			break
		}
	}
	i = skipMoneySpace(s, i)
	start := i
	for i < len(s) && (isDigit(s[i]) || s[i] == ',') {
		i++
	}
	if m.amount = s[start:i]; !amountShape(m.amount) {
		return moneyParts{}, false
	}
	if i < len(s) && s[i] == '.' {
		j := i + 1
		for j < len(s) && isDigit(s[j]) {
			j++
		}
		if j == i+1 {
			return moneyParts{}, false
		}
		m.frac, i = s[i:j], j
	}
	i = skipMoneySpace(s, i)
	end := len(s)
	for end > i && isMoneySpace(s[end-1]) {
		end--
	}
	switch m.suffix = s[i:end]; m.suffix {
	case "", "USD", "EUR", "GBP", "dollar", "dollars", "euro", "euros", "pound", "pounds":
		return m, true
	}
	return moneyParts{}, false
}

// amountShape reports whether a run of digits and commas is an amount:
// digits alone, or one to three digits followed by groups of a comma and
// three digits.
func amountShape(a string) bool {
	first := strings.IndexByte(a, ',')
	if first < 0 {
		return a != ""
	}
	if first == 0 || first > 3 {
		return false
	}
	for rest := a[first:]; rest != ""; rest = rest[4:] {
		if len(rest) < 4 || rest[0] != ',' || strings.IndexByte(rest[1:4], ',') >= 0 {
			return false
		}
	}
	return true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// isMoneySpace is the regexp's \s: tab, newline, form feed, carriage return
// and space.
func isMoneySpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\f' || c == '\r'
}

func skipMoneySpace(s string, i int) int {
	for i < len(s) && isMoneySpace(s[i]) {
		i++
	}
	return i
}

// ParseMoney parses strings like "$27", "1,234.50 USD", "€ 30", "45 euros".
func ParseMoney(s string) (Money, error) {
	m, ok := scanMoney(s)
	if !ok {
		return Money{}, fmt.Errorf("clean: unparseable money %q", s)
	}
	numeric := strings.ReplaceAll(m.amount, ",", "") + m.frac
	amount, err := strconv.ParseFloat(numeric, 64)
	if err != nil {
		return Money{}, fmt.Errorf("clean: money amount %q: %v", s, err)
	}
	currency := "USD"
	switch m.symbol {
	case "€":
		currency = "EUR"
	case "£":
		currency = "GBP"
	}
	switch strings.ToUpper(strings.TrimSuffix(strings.ToLower(m.suffix), "s")) {
	case "EUR", "EURO":
		currency = "EUR"
	case "GBP", "POUND":
		currency = "GBP"
	case "USD", "DOLLAR":
		currency = "USD"
	}
	if m.symbol == "" && m.suffix == "" {
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
