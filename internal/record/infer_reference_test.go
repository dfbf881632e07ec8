package record

// Infer, ParseTime and ParseNumber against the unguarded code they replaced.
// The guards (numberShape, timeShape) exist only to spare strconv and
// time.Parse the errors they build for text; they must never change a result.

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

// referenceParseTime is ParseTime without timeShape.
func referenceParseTime(s string) (time.Time, bool) {
	s = strings.TrimSpace(s)
	for _, layout := range timeLayouts {
		if t, err := time.Parse(layout, s); err == nil {
			return t, true
		}
	}
	return time.Time{}, false
}

// referenceInfer is Infer without numberShape, equalFoldASCII and timeShape.
func referenceInfer(s string) Value {
	trimmed := strings.TrimSpace(s)
	if trimmed == "" {
		return Null
	}
	if i, err := strconv.ParseInt(trimmed, 10, 64); err == nil {
		return Int(i)
	}
	if f, err := strconv.ParseFloat(trimmed, 64); err == nil {
		return Float(f)
	}
	switch strings.ToLower(trimmed) {
	case "true", "false":
		b, _ := strconv.ParseBool(strings.ToLower(trimmed))
		return Bool(b)
	}
	if t, ok := referenceParseTime(trimmed); ok {
		return Time(t)
	}
	return String(s)
}

// identical compares two values through their accessors, NaN equal to NaN.
func identical(a, b Value) bool { return sameReading(a, b) == "" }

func checkAgainstReference(t *testing.T, s string) {
	t.Helper()
	if got, want := Infer(s), referenceInfer(s); !identical(got, want) {
		t.Errorf("Infer(%q) = %v %#v, reference %v %#v", s, got.Kind(), got, want.Kind(), want)
	}
	got, err := ParseTime(s)
	want, ok := referenceParseTime(s)
	if (err == nil) != ok || !got.Equal(want) {
		t.Errorf("ParseTime(%q) = %v, %v; reference %v, %v", s, got, err, want, ok)
	}
	f, isNum := ParseNumber(s)
	ref := referenceInfer(s)
	refF, _ := ref.AsFloat()
	if refNum := ref.numeric(); isNum != refNum || (isNum && math.Float64bits(f) != math.Float64bits(refF)) {
		t.Errorf("ParseNumber(%q) = %v, %v; Infer gives %v %v", s, f, isNum, ref.Kind(), ref)
	}
}

// inferCases are the shapes the guards decide on: every layout, every way
// strconv reads a number, and the near misses around them.
var inferCases = []string{
	// the eight layouts
	"2013-03-04T19:30:00Z", "2013-03-04T19:30:00+02:00", "2013-03-04T19:30:00.25Z",
	"2013-03-04 19:30:00", "2013-03-04 7:30:00", "2013-03-04",
	"3/4/2013", "03/04/2013", "12/31/1999", "3/04/2013",
	"Mar 4, 2013", "mar 4, 2013", "MAR 14, 2013", "March 4, 2013", "may 1, 2001", "September 30, 2020",
	"4 Mar 2013", "14 mar 2013", "4  Mar  2013",
	// almost dates
	"2013-03-4", "2013-3-04", "2013/03/04", "13-03-04", "2013-03-04T", "2013-03-04 19:30", "2013-13-04",
	"3/4/13", "3-4-2013", "13/40/2013", "Mar 4 2013", "Mar 4,2013", "Marth 4, 2013", "Sept 4, 2013",
	"4 Mar 13", "4Mar 2013", "44 Mar 2013", "4 Mars 2013", "March", "1/2/2006x", "Jan 2, 2006 ",
	// integers
	"0", "7", "-7", "+5", "007", "-0", "+0", "9223372036854775807", "9223372036854775808",
	"-9223372036854775808", "-9223372036854775809", "123456789012345678901234567890",
	// floats
	"1.5", "-1.5", "+1.5", ".5", "5.", "-.5", ".", "1e3", "1E3", "1e+3", "1e-3", "1e", "1e+", "e3",
	"1.5e300", "1e999", "-1e999", "1e-999", "0x1p-2", "0X1P+2", "0x1p", "0x.8p1", "0x1e-2", "0x",
	"1_000", "1_000.5", "0x_1p0", "1__0", "_1", "1_", "Inf", "inf", "+Inf", "-inf", "INF",
	"Infinity", "-infinity", "infinit", "infinityy", "NaN", "nan", "NAN", "+nan", "-nan", "nano",
	"1.2.3", "1-2", "1+2", "--1", "+-1", "1e3e3", "12abc", "abc12", "1,000", "$27", "27%", "1 000",
	// booleans
	"true", "false", "TRUE", "False", "tRuE", "t", "f", "1", "yes", "truee", "fals", "falſe",
	// padding and emptiness
	"", " ", "\t\n", " 42 ", "\t-1.5\n", "  true ", " 2013-03-04 ", " 3/4/2013", "  The Walking Dead  ",
	// text
	"The Walking Dead", "Matilda", "Never Should Have", "New York", "Imperial Theatre", "Illinois",
	"Interest", "Ian", "Nan", "not a date", "225 W. 44th St", "44th Street", "(212) 239-6200",
	"Tues at 7pm Wed at 8pm", "35% off with code BWAYML", "http://matildathemusical.example.com",
	"May", "May 2", "Marching Band", "Decembrists", "augustus", "é", "日本語", "\xff\xfe", "2013‑ 03",
}

func TestInferMatchesReference(t *testing.T) {
	for _, s := range inferCases {
		checkAgainstReference(t, s)
	}
}

func FuzzInferMatchesReference(f *testing.F) {
	for _, s := range inferCases {
		f.Add(s)
	}
	f.Fuzz(checkAgainstReference)
}

// Type inference runs over every cell, every consolidated value and every
// schema sample, and most of those are text: refusing text must cost nothing.
func TestInferOfTextAllocatesNothing(t *testing.T) {
	var v Value
	if n := testing.AllocsPerRun(100, func() { v = Infer("The Walking Dead") }); n != 0 {
		t.Errorf(`Infer("The Walking Dead") allocates %v times, want 0`, n)
	}
	if v.Kind() != KindString {
		t.Errorf("Infer of text = %v", v.Kind())
	}
	var err error
	if n := testing.AllocsPerRun(100, func() { _, err = ParseTime("not a date") }); n != 0 {
		t.Errorf(`ParseTime("not a date") allocates %v times, want 0`, n)
	}
	if err != ErrUnrecognizedTime {
		t.Errorf("ParseTime error = %v", err)
	}
	if n := testing.AllocsPerRun(100, func() { ParseNumber("225 W. 44th St") }); n != 0 {
		t.Errorf(`ParseNumber("225 W. 44th St") allocates %v times, want 0`, n)
	}
}

// A date pays for no error of a layout before its own: layoutFits skips the
// layouts its length and separators rule out.
func TestParseTimeOfADateAllocatesNothing(t *testing.T) {
	for _, s := range []string{"2013-03-04", "3/4/2013", "Mar 4, 2013", "4 Mar 2013", "2013-03-04 19:30:00"} {
		if n := testing.AllocsPerRun(100, func() { ParseTime(s) }); n != 0 {
			t.Errorf("ParseTime(%q) allocates %v times, want 0", s, n)
		}
	}
}
