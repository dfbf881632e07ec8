package clean

import (
	"strings"
	"testing"

	"repro/internal/record"
)

func TestParseMoney(t *testing.T) {
	cases := []struct {
		in       string
		amount   float64
		currency string
	}{
		{"$27", 27, "USD"},
		{"$ 1,234.50", 1234.50, "USD"},
		{"€30", 30, "EUR"},
		{"45 euros", 45, "EUR"},
		{"£99.99", 99.99, "GBP"},
		{"12.50 USD", 12.50, "USD"},
		{"960,998", 960998, ""},
	}
	for _, c := range cases {
		m, err := ParseMoney(c.in)
		if err != nil {
			t.Errorf("ParseMoney(%q) error: %v", c.in, err)
			continue
		}
		if m.Amount != c.amount || m.Currency != c.currency {
			t.Errorf("ParseMoney(%q) = %+v, want %f %s", c.in, m, c.amount, c.currency)
		}
	}
	for _, bad := range []string{"", "abc", "$", "twenty dollars"} {
		if _, err := ParseMoney(bad); err == nil {
			t.Errorf("ParseMoney(%q) should fail", bad)
		}
	}
}

func TestMoneyString(t *testing.T) {
	if got := (Money{Amount: 27, Currency: "USD"}).String(); got != "$27.00" {
		t.Errorf("String = %q", got)
	}
	if got := (Money{Amount: 30.5, Currency: "EUR"}).String(); got != "€30.50" {
		t.Errorf("String = %q", got)
	}
	if got := (Money{Amount: 5}).String(); got != "5.00" {
		t.Errorf("bare = %q", got)
	}
}

func TestNormalizeDate(t *testing.T) {
	cases := map[string]string{
		"3/4/2013":        "2013-03-04",
		"2013-03-04":      "2013-03-04",
		"Jan 2, 2006":     "2006-01-02",
		"January 2, 2006": "2006-01-02",
	}
	for in, want := range cases {
		got, err := NormalizeDate(in)
		if err != nil || got != want {
			t.Errorf("NormalizeDate(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	if _, err := NormalizeDate("not a date"); err == nil {
		t.Error("invalid date should fail")
	}
}

func TestCurrencyConvert(t *testing.T) {
	c := CurrencyConvert{From: "EUR", To: "USD", Rate: 1.30}
	v, err := c.Apply(record.String("€100"))
	if err != nil || v.Str() != "$130.00" {
		t.Errorf("convert = %q, %v", v.Str(), err)
	}
	// Out-of-scope currency untouched.
	v, err = c.Apply(record.String("$50"))
	if err != nil || v.Str() != "$50" {
		t.Errorf("usd passthrough = %q, %v", v.Str(), err)
	}
	if _, err := c.Apply(record.String("garbage")); err == nil {
		t.Error("garbage should error")
	}
}

func TestDateTransform(t *testing.T) {
	dt := DateTransform{}
	v, err := dt.Apply(record.String("3/4/2013"))
	if err != nil || v.Str() != "2013-03-04" {
		t.Errorf("date = %q, %v", v.Str(), err)
	}
	tv := record.Infer("2013-03-04")
	v, err = dt.Apply(tv)
	if err != nil || v.Str() != "2013-03-04" {
		t.Errorf("time kind = %q, %v", v.Str(), err)
	}
}

func TestCleanerApply(t *testing.T) {
	c := &Cleaner{Rules: []Rule{
		{Attr: "price", Transform: CurrencyConvert{From: "EUR", To: "USD", Rate: 1.3}},
		{Attr: "first", Transform: DateTransform{}},
		{Attr: "city", Transform: WhitespaceTransform{}},
	}}
	r := record.New()
	r.Set("price", record.String("€10"))
	r.Set("first", record.String("3/4/2013"))
	r.Set("city", record.String(" New  York"))
	r.Set("untouched", record.String("x"))
	rep := c.Apply(r)
	if rep.Applied != 3 {
		t.Errorf("applied = %d: %+v", rep.Applied, rep)
	}
	if r.GetString("price") != "$13.00" {
		t.Errorf("price = %q", r.GetString("price"))
	}
	if r.GetString("first") != "2013-03-04" {
		t.Errorf("first = %q", r.GetString("first"))
	}
	if r.GetString("city") != "New York" {
		t.Errorf("city = %q", r.GetString("city"))
	}
}

func TestCleanerErrorsCounted(t *testing.T) {
	c := &Cleaner{Rules: []Rule{{Attr: "price", Transform: CurrencyConvert{From: "EUR", To: "USD", Rate: 1.3}}}}
	r := record.New()
	r.Set("price", record.String("call for pricing"))
	rep := c.Apply(r)
	if rep.Errors != 1 || rep.Applied != 0 {
		t.Errorf("report = %+v", rep)
	}
	if r.GetString("price") != "call for pricing" {
		t.Error("failed transform must leave value intact")
	}
}

func TestCleanerApplyAll(t *testing.T) {
	c := &Cleaner{Rules: []Rule{{Attr: "d", Transform: DateTransform{}}}}
	var records []*record.Record
	for _, d := range []string{"1/2/2013", "3/4/2013", "bad"} {
		r := record.New()
		r.Set("d", record.String(d))
		records = append(records, r)
	}
	rep := c.ApplyAll(records)
	if rep.Applied != 2 || rep.Errors != 1 {
		t.Errorf("report = %+v", rep)
	}
	if rep.ByRule["date-iso"] != 2 {
		t.Errorf("byrule = %v", rep.ByRule)
	}
}

func TestTransformNames(t *testing.T) {
	for _, tr := range []Transform{
		CurrencyConvert{From: "EUR", To: "USD"},
		DateTransform{},
		WhitespaceTransform{},
		NullStandardize{},
	} {
		if strings.TrimSpace(tr.Name()) == "" {
			t.Errorf("%T has empty name", tr)
		}
	}
}

func TestWhitespaceTransform(t *testing.T) {
	w := WhitespaceTransform{}
	v, _ := w.Apply(record.String("Shubert   225 W. 44th"))
	if v.Str() != "Shubert 225 W. 44th" {
		t.Errorf("ws = %q", v.Str())
	}
	v, _ = w.Apply(record.Int(3))
	if v.Kind() != record.KindInt {
		t.Error("non-string rewritten")
	}
	if got := NormalizeWhitespace("  a \t b\n c "); got != "a b c" {
		t.Errorf("whitespace = %q", got)
	}
}

func TestNullStandardize(t *testing.T) {
	n := NullStandardize{}
	for _, s := range []string{"n/a", "N/A", " none ", "-", "?", "TBD"} {
		v, err := n.Apply(record.String(s))
		if err != nil || !v.IsNull() {
			t.Errorf("NullStandardize(%q) = %v, %v", s, v, err)
		}
	}
	v, _ := n.Apply(record.String("Matilda"))
	if v.IsNull() {
		t.Error("real value nulled")
	}
	v, _ = n.Apply(record.Int(0))
	if v.IsNull() {
		t.Error("non-string nulled")
	}
}
