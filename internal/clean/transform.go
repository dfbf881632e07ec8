package clean

import (
	"fmt"
	"strings"

	"repro/internal/record"
)

// Transform rewrites one value; returning the input unchanged is valid.
type Transform interface {
	// Name identifies the transform in reports.
	Name() string
	// Apply rewrites v. An error leaves the original value in place and is
	// counted in the cleaning report.
	Apply(v record.Value) (record.Value, error)
}

// CurrencyConvert converts monetary values between currencies at a fixed
// rate — the paper's canonical transformation example (euros to dollars).
type CurrencyConvert struct {
	From, To string
	Rate     float64 // multiply From amounts by Rate to get To
}

// Name implements Transform.
func (c CurrencyConvert) Name() string { return fmt.Sprintf("currency:%s->%s", c.From, c.To) }

// Apply implements Transform.
func (c CurrencyConvert) Apply(v record.Value) (record.Value, error) {
	m, err := ParseMoney(v.Str())
	if err != nil {
		return v, err
	}
	if m.Currency != c.From {
		return v, nil // not in scope; leave untouched
	}
	converted := Money{Amount: m.Amount * c.Rate, Currency: c.To}
	return record.String(converted.String()), nil
}

// DateTransform normalizes date strings to ISO 8601.
type DateTransform struct{}

// Name implements Transform.
func (DateTransform) Name() string { return "date-iso" }

// Apply implements Transform.
func (DateTransform) Apply(v record.Value) (record.Value, error) {
	if v.Kind() == record.KindTime {
		t, _ := v.AsTime()
		return record.String(t.Format("2006-01-02")), nil
	}
	iso, err := NormalizeDate(v.Str())
	if err != nil {
		return v, err
	}
	return record.String(iso), nil
}

// NullStandardize maps the common "missing" spellings (n/a, none, unknown,
// -, ?) to the null value so downstream consolidation treats them as
// absent.
type NullStandardize struct{}

// Name implements Transform.
func (NullStandardize) Name() string { return "null-standardize" }

var nullSpellings = map[string]bool{
	"n/a": true, "na": true, "none": true, "null": true, "nil": true,
	"unknown": true, "-": true, "--": true, "?": true, "tbd": true,
	"missing": true,
}

// Apply implements Transform.
func (NullStandardize) Apply(v record.Value) (record.Value, error) {
	if v.Kind() != record.KindString {
		return v, nil
	}
	if nullSpellings[strings.ToLower(strings.TrimSpace(v.Str()))] {
		return record.Null, nil
	}
	return v, nil
}

// WhitespaceTransform collapses whitespace in string values.
type WhitespaceTransform struct{}

// Name implements Transform.
func (WhitespaceTransform) Name() string { return "whitespace" }

// Apply implements Transform.
func (WhitespaceTransform) Apply(v record.Value) (record.Value, error) {
	if v.Kind() != record.KindString {
		return v, nil
	}
	return record.String(NormalizeWhitespace(v.Str())), nil
}

// Rule binds a transform to an attribute.
type Rule struct {
	Attr      string
	Transform Transform
}

// Report tallies a cleaning run.
type Report struct {
	Applied int            // values rewritten
	Errors  int            // transform errors (value left as-is)
	ByRule  map[string]int // rewrites per transform name
}

// Cleaner applies rules to records.
type Cleaner struct {
	Rules []Rule
}

// Apply runs every matching rule over the record in place and reports what
// changed.
func (c *Cleaner) Apply(r *record.Record) Report {
	rep := Report{ByRule: map[string]int{}}
	for _, rule := range c.Rules {
		v, ok := r.Get(rule.Attr)
		if !ok || v.IsNull() {
			continue
		}
		nv, err := rule.Transform.Apply(v)
		if err != nil {
			rep.Errors++
			continue
		}
		if !nv.Equal(v) || nv.Str() != v.Str() {
			r.Set(rule.Attr, nv)
			rep.Applied++
			rep.ByRule[rule.Transform.Name()]++
		}
	}
	return rep
}

// ApplyAll cleans a batch, merging reports.
func (c *Cleaner) ApplyAll(records []*record.Record) Report {
	total := Report{ByRule: map[string]int{}}
	for _, r := range records {
		rep := c.Apply(r)
		total.Applied += rep.Applied
		total.Errors += rep.Errors
		for k, v := range rep.ByRule {
			total.ByRule[k] += v
		}
	}
	return total
}
