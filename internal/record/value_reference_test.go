package record

// The compact Value against the 72-byte struct it replaced. refValue and its
// methods are the parent commit's Value, copied verbatim apart from the
// names; FuzzValueMatchesReference builds both from the same inputs and
// requires every accessor and every pairwise Compare to agree.

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

// refValue is an immutable typed scalar. The zero refValue is refNull.
type refValue struct {
	kind Kind
	s    string
	i    int64
	f    float64
	b    bool
	t    time.Time
}

// refNull is the null value.
var refNull = refValue{}

// refString returns a string value.
func refString(s string) refValue { return refValue{kind: KindString, s: s} }

// refInt returns an integer value.
func refInt(i int64) refValue { return refValue{kind: KindInt, i: i} }

// refFloat returns a floating-point value.
func refFloat(f float64) refValue { return refValue{kind: KindFloat, f: f} }

// refBool returns a boolean value.
func refBool(b bool) refValue { return refValue{kind: KindBool, b: b} }

// refTime returns a timestamp value.
func refTime(t time.Time) refValue { return refValue{kind: KindTime, t: t} }

// Kind reports the kind of v.
func (v refValue) Kind() Kind { return v.kind }

// IsNull reports whether v is the null value.
func (v refValue) IsNull() bool { return v.kind == KindNull }

// Str returns the string payload; for non-string kinds it returns the
// canonical textual rendering.
func (v refValue) Str() string {
	switch v.kind {
	case KindString:
		return v.s
	default:
		return v.String()
	}
}

// AsInt returns the value as an int64 and whether the conversion is exact.
func (v refValue) AsInt() (int64, bool) {
	switch v.kind {
	case KindInt:
		return v.i, true
	case KindFloat:
		if v.f == math.Trunc(v.f) && !math.IsInf(v.f, 0) {
			return int64(v.f), true
		}
		return 0, false
	case KindBool:
		if v.b {
			return 1, true
		}
		return 0, true
	case KindString:
		s := strings.TrimSpace(v.s)
		if integer, _ := numberShape(s); !integer {
			return 0, false
		}
		i, err := strconv.ParseInt(s, 10, 64)
		return i, err == nil
	default:
		return 0, false
	}
}

// AsFloat returns the value as a float64 and whether a numeric reading exists.
func (v refValue) AsFloat() (float64, bool) {
	switch v.kind {
	case KindFloat:
		return v.f, true
	case KindInt:
		return float64(v.i), true
	case KindBool:
		if v.b {
			return 1, true
		}
		return 0, true
	case KindString:
		s := strings.TrimSpace(v.s)
		if _, float := numberShape(s); !float {
			return 0, false
		}
		f, err := strconv.ParseFloat(s, 64)
		return f, err == nil
	default:
		return 0, false
	}
}

// AsBool returns the value as a bool and whether a boolean reading exists.
func (v refValue) AsBool() (bool, bool) {
	switch v.kind {
	case KindBool:
		return v.b, true
	case KindInt:
		return v.i != 0, true
	case KindString:
		b, err := strconv.ParseBool(strings.TrimSpace(strings.ToLower(v.s)))
		return b, err == nil
	default:
		return false, false
	}
}

// AsTime returns the value as a time.Time and whether a temporal reading
// exists. Strings are parsed with ParseTime.
func (v refValue) AsTime() (time.Time, bool) {
	switch v.kind {
	case KindTime:
		return v.t, true
	case KindString:
		t, err := ParseTime(v.s)
		return t, err == nil
	default:
		return time.Time{}, false
	}
}

// String renders the value for display: strings verbatim, numbers in their
// shortest form, times in RFC 3339 date or datetime form.
func (v refValue) String() string {
	switch v.kind {
	case KindNull:
		return ""
	case KindString:
		return v.s
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.b)
	case KindTime:
		if v.t.Hour() == 0 && v.t.Minute() == 0 && v.t.Second() == 0 {
			return v.t.Format("2006-01-02")
		}
		return v.t.Format(time.RFC3339)
	default:
		return ""
	}
}

// Equal reports deep equality of two values. Numeric kinds compare by value,
// so Int(3) equals Float(3).
func (v refValue) Equal(o refValue) bool { return refCompare(v, o) == 0 }

// refCompare orders two values. Nulls sort first; mixed numeric kinds compare
// numerically; otherwise kinds order by Kind, then payload.
func refCompare(a, b refValue) int {
	an, bn := a.numeric(), b.numeric()
	if an && bn {
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	if a.kind != b.kind {
		if a.kind < b.kind {
			return -1
		}
		return 1
	}
	switch a.kind {
	case KindNull:
		return 0
	case KindString:
		return strings.Compare(a.s, b.s)
	case KindBool:
		switch {
		case a.b == b.b:
			return 0
		case !a.b:
			return -1
		default:
			return 1
		}
	case KindTime:
		switch {
		case a.t.Before(b.t):
			return -1
		case a.t.After(b.t):
			return 1
		default:
			return 0
		}
	default:
		return 0
	}
}

func (v refValue) numeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// refInfer is the parent's Infer, building a refValue.
func refInfer(s string) refValue {
	trimmed := strings.TrimSpace(s)
	if trimmed == "" {
		return refNull
	}
	integer, float := numberShape(trimmed)
	if integer {
		if i, err := strconv.ParseInt(trimmed, 10, 64); err == nil {
			return refInt(i)
		}
	}
	if float {
		if f, err := strconv.ParseFloat(trimmed, 64); err == nil {
			return refFloat(f)
		}
	}
	switch {
	case equalFoldASCII(trimmed, "true"):
		return refBool(true)
	case equalFoldASCII(trimmed, "false"):
		return refBool(false)
	}
	if t, err := ParseTime(trimmed); err == nil {
		return refTime(t)
	}
	return refString(s)
}

// accessor is the part of Value's method set the two implementations share.
type accessor interface {
	Kind() Kind
	IsNull() bool
	Str() string
	String() string
	AsInt() (int64, bool)
	AsFloat() (float64, bool)
	AsBool() (bool, bool)
	AsTime() (time.Time, bool)
}

// sameReading reports what differs between two values read through their
// accessors, or "": NaN equals NaN, and times agree on instant and zone
// offset.
func sameReading(a, b accessor) string {
	if a.Kind() != b.Kind() || a.IsNull() != b.IsNull() {
		return "kind"
	}
	if a.Str() != b.Str() {
		return "Str"
	}
	if a.String() != b.String() {
		return "String"
	}
	ai, aok := a.AsInt()
	bi, bok := b.AsInt()
	if ai != bi || aok != bok {
		return "AsInt"
	}
	af, aok := a.AsFloat()
	bf, bok := b.AsFloat()
	if math.Float64bits(af) != math.Float64bits(bf) || aok != bok {
		return "AsFloat"
	}
	ab, aok := a.AsBool()
	bb, bok := b.AsBool()
	if ab != bb || aok != bok {
		return "AsBool"
	}
	at, aok := a.AsTime()
	bt, bok := b.AsTime()
	_, aoff := at.Zone()
	_, boff := bt.Zone()
	if aok != bok || !at.Equal(bt) || aoff != boff {
		return "AsTime"
	}
	return ""
}

// valuePair is one input built both ways.
type valuePair struct {
	v   Value
	ref refValue
}

// valuePairs builds, from one set of fuzz inputs, every kind both ways:
// Infer and String of the text, the integer, the float and its edge cases,
// the bool, and times in UTC, at a fixed offset, date-only and sub-second.
func valuePairs(s string, i int64, f float64, b bool, sec int64, nsec uint32, offset int32) []valuePair {
	// Keep the instant within ±4 000 years of 1970 and the offset within a
	// day, seconds included.
	sec %= 1 << 37
	t := time.Unix(sec, int64(nsec%1e9))
	zone := time.FixedZone("", int(offset%(24*3600)))
	y, m, d := t.UTC().Date()
	times := []time.Time{
		t.Truncate(time.Second).UTC(),
		t.UTC(),
		t.In(zone),
		t.Truncate(time.Second).In(zone),
		time.Date(y, m, d, 0, 0, 0, 0, time.UTC),
		time.Date(y, m, d, 0, 0, 0, 0, zone),
	}
	pairs := []valuePair{
		{Null, refNull},
		{Infer(s), refInfer(s)},
		{String(s), refString(s)},
		{Int(i), refInt(i)},
		{Bool(b), refBool(b)},
	}
	for _, x := range []float64{f, math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0} {
		pairs = append(pairs, valuePair{Float(x), refFloat(x)})
	}
	for _, tm := range times {
		pairs = append(pairs, valuePair{Time(tm), refTime(tm)})
	}
	return pairs
}

func checkValueAgainstReference(t *testing.T, s string, i int64, f float64, b bool, sec int64, nsec uint32, offset int32) {
	t.Helper()
	pairs := valuePairs(s, i, f, b, sec, nsec, offset)
	for _, p := range pairs {
		if diff := sameReading(p.v, p.ref); diff != "" {
			t.Errorf("%s differs: %v %q, reference %v %q", diff, p.v.Kind(), p.v, p.ref.Kind(), p.ref)
		}
		if got := string(p.v.AppendStr(nil)); got != p.v.Str() {
			t.Errorf("AppendStr of %v %q appends %q", p.v.Kind(), p.v.Str(), got)
		}
		if got := string(p.v.AppendStr([]byte("x"))); got != "x"+p.v.Str() {
			t.Errorf("AppendStr of %v %q after \"x\" gives %q", p.v.Kind(), p.v.Str(), got)
		}
	}
	for _, p := range pairs {
		for _, q := range pairs {
			if got, want := Compare(p.v, q.v), refCompare(p.ref, q.ref); got != want {
				t.Errorf("Compare(%v %q, %v %q) = %d, reference %d", p.v.Kind(), p.v, q.v.Kind(), q.v, got, want)
			}
		}
	}
}

type valueSeed struct {
	s      string
	i      int64
	f      float64
	b      bool
	sec    int64
	nsec   uint32
	offset int32
}

var valueSeeds = []valueSeed{
	{"The Walking Dead", 42, 99.5, true, 1362425400, 0, 0},
	{"2013-03-04T19:30:00+02:00", -7, -1.5, false, 1362425400, 250_000_000, 2 * 3600},
	{"3/4/2013", math.MaxInt64, math.MaxFloat64, true, -62135596800, 999_999_999, -5 * 3600},
	{" TRUE ", math.MinInt64, math.SmallestNonzeroFloat64, false, 0, 1, -(4*3600 + 56*60 + 2)},
	{"1e999", 0, math.Inf(1), true, 253402300799, 0, 14 * 3600},
	{"nan", 1, math.NaN(), false, -1, 500, 30 * 60},
	{"0", 0, 0, false, 1362355200, 0, 0},
	{"", 3, 3, true, 1362355200, 0, 9 * 3600},
}

func TestValueMatchesReference(t *testing.T) {
	for _, s := range inferCases {
		checkValueAgainstReference(t, s, 0, 0, false, 0, 0, 0)
	}
	for _, c := range valueSeeds {
		checkValueAgainstReference(t, c.s, c.i, c.f, c.b, c.sec, c.nsec, c.offset)
	}
}

func FuzzValueMatchesReference(f *testing.F) {
	for _, c := range valueSeeds {
		f.Add(c.s, c.i, c.f, c.b, c.sec, c.nsec, c.offset)
	}
	f.Fuzz(checkValueAgainstReference)
}
