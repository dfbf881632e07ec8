package clean

import (
	"fmt"
	"strings"
	"unicode/utf8"

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

// maxScreened bounds the money strings CurrencyConvert.Apply screens
// without parsing: their amount has too few digits to overflow a float64,
// so a string scanMoney reads parses.
const maxScreened = 300

// Apply implements Transform. A string that cannot be money in From is left
// as it is without being parsed, so a string out of scope allocates nothing.
func (c CurrencyConvert) Apply(v record.Value) (record.Value, error) {
	if s := v.Str(); v.Kind() == record.KindString && len(s) <= maxScreened && !mayBeIn(s, c.From) {
		if _, ok := scanMoney(s); ok {
			return v, nil
		}
	}
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
		return record.String(t.Format(isoDate)), nil
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
	if isNullSpelling(strings.TrimSpace(v.Str())) {
		return record.Null, nil
	}
	return v, nil
}

// isNullSpelling reports whether nullSpellings holds s lower-cased. An ASCII
// s is lower-cased on the stack, and one longer than every spelling not at
// all: lower-casing ASCII keeps its length.
func isNullSpelling(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return nullSpellings[strings.ToLower(s)]
		}
	}
	var buf [len("unknown")]byte
	if len(s) > len(buf) {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		buf[i] = c
	}
	return nullSpellings[string(buf[:len(s)])]
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
// changed. ByRule is nil when nothing was rewritten, so a record that is
// already clean costs no allocation.
func (c *Cleaner) Apply(r *record.Record) Report {
	var rep Report
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
		if !nv.Equal(v) || !sameStr(nv, v) {
			r.Set(rule.Attr, nv)
			rep.Applied++
			if rep.ByRule == nil {
				rep.ByRule = map[string]int{}
			}
			rep.ByRule[rule.Transform.Name()]++
		}
	}
	return rep
}

// sameStr reports whether a.Str() == b.Str(), rendering a value that is not
// a string on the stack.
func sameStr(a, b record.Value) bool {
	if a.Kind() == record.KindString && b.Kind() == record.KindString {
		return a.Str() == b.Str()
	}
	var ab, bb [64]byte
	return string(a.AppendStr(ab[:0])) == string(b.AppendStr(bb[:0]))
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
