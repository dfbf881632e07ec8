// Package clean implements Data Tamer's data-cleaning and transformation
// modules: format normalizers, dictionary repair of near-miss values,
// numeric outlier detection, and a rule-driven transformation engine (the
// paper's example: translating euros into dollars).
package clean

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/record"
)

var (
	moneyRe = regexp.MustCompile(`^\s*([$€£])?\s*(\d{1,3}(?:,\d{3})*|\d+)(\.\d+)?\s*(USD|EUR|GBP|dollars?|euros?|pounds?)?\s*$`)
	phoneRe = regexp.MustCompile(`\d`)
)

// Money is a parsed monetary value.
type Money struct {
	Amount   float64
	Currency string // ISO code: USD, EUR, GBP
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

// NormalizeDate parses the supported date layouts and renders ISO 8601
// (2006-01-02).
func NormalizeDate(s string) (string, error) {
	t, err := record.ParseTime(s)
	if err != nil {
		return "", fmt.Errorf("%w %q", err, s)
	}
	return t.Format("2006-01-02"), nil
}

// NormalizePhone reduces a phone number to its digit string, keeping a
// leading +. It errors when fewer than 7 digits remain.
func NormalizePhone(s string) (string, error) {
	digits := strings.Join(phoneRe.FindAllString(s, -1), "")
	if len(digits) < 7 {
		return "", fmt.Errorf("clean: unparseable phone %q", s)
	}
	if strings.HasPrefix(strings.TrimSpace(s), "+") {
		return "+" + digits, nil
	}
	return digits, nil
}

// NormalizeWhitespace collapses runs of whitespace and trims.
func NormalizeWhitespace(s string) string {
	return strings.Join(strings.Fields(s), " ")
}

// TitleCase renders s in simple title case (first letter of each word
// upper, rest lower), used when consolidating display names.
func TitleCase(s string) string {
	words := strings.Fields(strings.ToLower(s))
	for i, w := range words {
		r := []rune(w)
		if len(r) > 0 {
			r[0] = []rune(strings.ToUpper(string(r[0])))[0]
			words[i] = string(r)
		}
	}
	return strings.Join(words, " ")
}
