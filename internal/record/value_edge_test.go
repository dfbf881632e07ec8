package record

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestKindStringNames(t *testing.T) {
	names := map[Kind]string{
		KindNull:   "null",
		KindString: "string",
		KindInt:    "int",
		KindFloat:  "float",
		KindBool:   "bool",
		KindTime:   "time",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
	if got := Kind(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestValueStringWithClock(t *testing.T) {
	ts := Time(time.Date(2013, 3, 4, 19, 30, 0, 0, time.UTC))
	if got := ts.String(); !strings.Contains(got, "19:30") {
		t.Errorf("datetime rendering = %q", got)
	}
	midnight := Time(time.Date(2013, 3, 4, 0, 0, 0, 0, time.UTC))
	if got := midnight.String(); got != "2013-03-04" {
		t.Errorf("date rendering = %q", got)
	}
}

func TestStrOnNonStringKinds(t *testing.T) {
	if got := Int(42).Str(); got != "42" {
		t.Errorf("Int Str = %q", got)
	}
	if got := Bool(true).Str(); got != "true" {
		t.Errorf("Bool Str = %q", got)
	}
	if got := Null.Str(); got != "" {
		t.Errorf("Null Str = %q", got)
	}
}

func TestAsIntEdges(t *testing.T) {
	if i, ok := Bool(true).AsInt(); !ok || i != 1 {
		t.Errorf("Bool AsInt = %d, %v", i, ok)
	}
	if _, ok := Null.AsInt(); ok {
		t.Error("Null AsInt should fail")
	}
	if _, ok := String("abc").AsInt(); ok {
		t.Error("non-numeric string AsInt should fail")
	}
	if i, ok := String(" 7 ").AsInt(); !ok || i != 7 {
		t.Errorf("padded string AsInt = %d, %v", i, ok)
	}
}

func TestAsBoolEdges(t *testing.T) {
	if b, ok := Int(0).AsBool(); !ok || b {
		t.Errorf("Int(0) AsBool = %v, %v", b, ok)
	}
	if b, ok := Int(3).AsBool(); !ok || !b {
		t.Errorf("Int(3) AsBool = %v, %v", b, ok)
	}
	if _, ok := Float(1.5).AsBool(); ok {
		t.Error("Float AsBool should fail")
	}
	if _, ok := String("maybe").AsBool(); ok {
		t.Error("bad string AsBool should fail")
	}
}

func TestAsTimeEdges(t *testing.T) {
	if _, ok := Int(5).AsTime(); ok {
		t.Error("Int AsTime should fail")
	}
	want := time.Date(2006, 1, 2, 0, 0, 0, 0, time.UTC)
	for _, layout := range []string{"2 Jan 2006", "01/02/2006", "2006-01-02"} {
		got, ok := String(want.Format(layout)).AsTime()
		if !ok || !got.Equal(want) {
			t.Errorf("AsTime(%s layout) = %v, %v", layout, got, ok)
		}
	}
}

func TestAsFloatBool(t *testing.T) {
	if f, ok := Bool(true).AsFloat(); !ok || f != 1 {
		t.Errorf("Bool(true) AsFloat = %v, %v", f, ok)
	}
	if f, ok := Bool(false).AsFloat(); !ok || f != 0 {
		t.Errorf("Bool(false) AsFloat = %v, %v", f, ok)
	}
}

func TestCompareTimeOrdering(t *testing.T) {
	early := Time(time.Date(2012, 1, 1, 0, 0, 0, 0, time.UTC))
	late := Time(time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC))
	if Compare(early, late) != -1 || Compare(late, early) != 1 || Compare(early, early) != 0 {
		t.Error("time ordering wrong")
	}
}

func TestCompareBoolOrdering(t *testing.T) {
	if Compare(Bool(false), Bool(true)) != -1 {
		t.Error("false < true")
	}
	if Compare(Bool(true), Bool(true)) != 0 {
		t.Error("bool reflexivity")
	}
	if Compare(Bool(true), Bool(false)) != 1 {
		t.Error("true > false")
	}
}

func TestParseTimeRejects(t *testing.T) {
	for _, s := range []string{"", "soon", "13/45/2013", "2013-99-99"} {
		if _, err := ParseTime(s); err == nil {
			t.Errorf("ParseTime(%q) should fail", s)
		}
	}
}

func TestInferNegativeAndScientific(t *testing.T) {
	if v := Infer("-3.5"); v.Kind() != KindFloat {
		t.Errorf("Infer(-3.5) = %v", v.Kind())
	}
	if v := Infer("1e3"); v.Kind() != KindFloat {
		t.Errorf("Infer(1e3) = %v", v.Kind())
	}
	f, _ := Infer("1e3").AsFloat()
	if f != 1000 {
		t.Errorf("1e3 = %f", f)
	}
}

func TestRecordGetOnEmpty(t *testing.T) {
	var r Record
	if _, ok := r.Get("x"); ok {
		t.Error("zero record Get should miss")
	}
	if r.GetString("x") != "" {
		t.Error("zero record GetString should be empty")
	}
	r.Set("a", Int(1)) // Set on zero value must initialize the index
	if v, ok := r.Get("a"); !ok || v.Str() != "1" {
		t.Errorf("zero record Set/Get = %v, %v", v, ok)
	}
}

func TestRecordGetStringNull(t *testing.T) {
	r := New()
	r.Set("x", Null)
	if got := r.GetString("x"); got != "" {
		t.Errorf("null GetString = %q", got)
	}
}

func TestRecordDeleteMissing(t *testing.T) {
	r := New()
	r.Set("a", Int(1))
	r.Delete("missing") // no-op must not panic or disturb
	if r.Len() != 1 {
		t.Errorf("Len = %d", r.Len())
	}
}

// A value reads its payload in place: the accessors that return no text
// allocate nothing, and neither does Compare, times included.
func TestValueAccessorsAllocateNothing(t *testing.T) {
	vals := []Value{
		Null, String("Matilda"), String(" 42 "), String("2.5"), String("TRUE"), String("f"),
		Int(-7), Float(math.NaN()), Float(99.5), Bool(true), Bool(false),
		Time(time.Date(2013, 3, 4, 0, 0, 0, 0, time.UTC)),
		Time(time.Date(2013, 3, 4, 19, 30, 0, 5, time.FixedZone("", -5*3600))),
	}
	n := testing.AllocsPerRun(100, func() {
		for _, v := range vals {
			v.AsInt()
			v.AsFloat()
			v.AsBool()
			for _, w := range vals {
				Compare(v, w)
			}
			if k := v.Kind(); k == KindString || k == KindNull || k == KindBool {
				_ = v.Str()
			}
		}
	})
	if n != 0 {
		t.Errorf("accessors allocate %v times per pass, want 0", n)
	}
}
