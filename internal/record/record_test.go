package record

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestValueKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
		str  string
	}{
		{Null, KindNull, ""},
		{String("abc"), KindString, "abc"},
		{Int(42), KindInt, "42"},
		{Float(2.5), KindFloat, "2.5"},
		{Bool(true), KindBool, "true"},
		{Time(time.Date(2013, 3, 4, 0, 0, 0, 0, time.UTC)), KindTime, "2013-03-04"},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("kind of %v = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
		if got := c.v.String(); got != c.str {
			t.Errorf("String() of kind %v = %q, want %q", c.kind, got, c.str)
		}
	}
}

func TestValueConversions(t *testing.T) {
	if i, ok := Float(3.0).AsInt(); !ok || i != 3 {
		t.Errorf("Float(3).AsInt() = %d, %v", i, ok)
	}
	if _, ok := Float(3.5).AsInt(); ok {
		t.Error("Float(3.5).AsInt() should not be exact")
	}
	if f, ok := String(" 2.25 ").AsFloat(); !ok || f != 2.25 {
		t.Errorf("String AsFloat = %v, %v", f, ok)
	}
	if b, ok := String("TRUE").AsBool(); !ok || !b {
		t.Errorf("String AsBool = %v, %v", b, ok)
	}
	if _, ok := Null.AsFloat(); ok {
		t.Error("Null.AsFloat() should fail")
	}
	tm, ok := String("3/4/2013").AsTime()
	if !ok || tm.Year() != 2013 || tm.Month() != time.March || tm.Day() != 4 {
		t.Errorf("AsTime(3/4/2013) = %v, %v", tm, ok)
	}
}

func TestCompareNumericCrossKind(t *testing.T) {
	if Compare(Int(3), Float(3.0)) != 0 {
		t.Error("Int(3) should equal Float(3.0)")
	}
	if Compare(Int(2), Float(2.5)) != -1 {
		t.Error("Int(2) < Float(2.5)")
	}
	if Compare(Float(5), Int(4)) != 1 {
		t.Error("Float(5) > Int(4)")
	}
}

func TestCompareOrdering(t *testing.T) {
	ordered := []Value{
		Null,
		String("a"),
		String("b"),
		Int(1),
	}
	// Null < String for non-numeric mixed kinds by Kind order; verify
	// antisymmetry and reflexivity pairwise within same kinds.
	for i, a := range ordered {
		if Compare(a, a) != 0 {
			t.Errorf("Compare(%v,%v) != 0", a, a)
		}
		for j := i + 1; j < len(ordered); j++ {
			b := ordered[j]
			if Compare(a, b) != -Compare(b, a) {
				t.Errorf("Compare not antisymmetric for %v,%v", a, b)
			}
		}
	}
}

func TestInfer(t *testing.T) {
	cases := []struct {
		in   string
		kind Kind
	}{
		{"", KindNull},
		{"  ", KindNull},
		{"42", KindInt},
		{"-7", KindInt},
		{"2.5", KindFloat},
		{"true", KindBool},
		{"False", KindBool},
		{"2013-03-04", KindTime},
		{"Matilda", KindString},
		{"$27", KindString},
	}
	for _, c := range cases {
		if got := Infer(c.in).Kind(); got != c.kind {
			t.Errorf("Infer(%q).Kind() = %v, want %v", c.in, got, c.kind)
		}
	}
}

func TestNormalizeName(t *testing.T) {
	cases := map[string]string{
		"Show Name":    "show_name",
		"SHOW_NAME":    "show_name",
		"show-name":    "show_name",
		"  Theater  ":  "theater",
		"a.b/c":        "a_b_c",
		"__weird__":    "weird",
		"CheapestTix ": "cheapesttix",
	}
	for in, want := range cases {
		if got := NormalizeName(in); got != want {
			t.Errorf("NormalizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestRecordSetGet(t *testing.T) {
	r := New()
	r.Set("Show Name", String("Matilda"))
	r.Set("PRICE", Float(27))

	if v, ok := r.Get("show_name"); !ok || v.Str() != "Matilda" {
		t.Errorf("Get(show_name) = %v, %v", v, ok)
	}
	if !r.Has("price") {
		t.Error("Has(price) = false")
	}
	r.Set("show name", String("Wicked")) // replaces via normalized key
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	if got := r.GetString("Show Name"); got != "Wicked" {
		t.Errorf("after replace, GetString = %q", got)
	}
}

func TestRecordDeleteRename(t *testing.T) {
	r := New()
	r.Set("a", Int(1))
	r.Set("b", Int(2))
	r.Set("c", Int(3))
	r.Delete("b")
	if r.Len() != 2 || r.Has("b") {
		t.Fatalf("after delete: %v", r)
	}
	if v, _ := r.Get("c"); v.Str() != "3" {
		t.Errorf("field after the deleted one lost: c = %v", v)
	}
	r.Rename("c", "z")
	if !r.Has("z") || r.Has("c") {
		t.Errorf("rename failed: %v", r)
	}
	r.Rename("missing", "q") // no-op
	if r.Has("q") {
		t.Error("rename of missing field created a field")
	}
}

func TestRecordCloneEqual(t *testing.T) {
	r := New()
	r.Source = "src1"
	r.Set("x", Int(1))
	r.Set("y", String("two"))
	c := r.Clone()
	if !slices.Equal(r.Fields(), c.Fields()) || c.Source != r.Source {
		t.Fatalf("clone %v, original %v", c, r)
	}
	c.Set("x", Int(9))
	if slices.Equal(r.Fields(), c.Fields()) {
		t.Fatal("mutating clone affected the original")
	}
	if v, _ := r.Get("x"); v.Str() != "1" {
		t.Fatal("clone shares storage with original")
	}
}

func TestRecordString(t *testing.T) {
	r := New()
	r.Set("a", Int(1))
	r.Set("b", String("x"))
	if got := r.String(); got != "{a=1, b=x}" {
		t.Errorf("String() = %q", got)
	}
}

// Property: Compare is reflexive and antisymmetric over inferred values.
func TestQuickCompareAntisymmetry(t *testing.T) {
	f := func(a, b string) bool {
		va, vb := Infer(a), Infer(b)
		return Compare(va, va) == 0 && Compare(va, vb) == -Compare(vb, va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: NormalizeName is idempotent.
func TestQuickNormalizeIdempotent(t *testing.T) {
	f := func(s string) bool {
		once := NormalizeName(s)
		return NormalizeName(once) == once
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Set then Get round-trips string values under any field name that
// normalizes non-empty.
func TestQuickSetGetRoundTrip(t *testing.T) {
	f := func(name, val string) bool {
		if NormalizeName(name) == "" {
			return true
		}
		r := New()
		r.Set(name, String(val))
		v, ok := r.Get(name)
		return ok && v.Str() == val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareFloatEdge(t *testing.T) {
	if Compare(Float(math.Inf(1)), Float(math.MaxFloat64)) != 1 {
		t.Error("+Inf should exceed MaxFloat64")
	}
	if Compare(Float(math.Inf(-1)), Int(math.MinInt64)) != -1 {
		t.Error("-Inf should be least")
	}
}

// TestAppendStrAllocatesNothing: a scalar of every kind renders into a
// buffer with room without allocating, a time in a zone other than UTC
// included.
func TestAppendStrAllocatesNothing(t *testing.T) {
	vals := []Value{
		String("Matilda"), Int(-1251), Int(7), Float(2.5e-7), Float(27), Bool(true),
		Time(time.Date(2013, 3, 4, 0, 0, 0, 0, time.UTC)),
		Time(time.Date(2013, 3, 4, 19, 30, 0, 0, time.FixedZone("EST", -5*3600))),
	}
	buf := make([]byte, 0, 64)
	for _, v := range vals {
		if n := testing.AllocsPerRun(100, func() { buf = v.AppendStr(buf[:0]) }); n != 0 {
			t.Errorf("AppendStr of %v %q allocates %v times, want 0", v.Kind(), v.Str(), n)
		}
	}
}
