// Package record defines the flat data model shared by every Data Tamer
// module: typed values, flat records, and schemas-by-example. Structured
// sources (CSV, JSON), flattened semi-structured documents, and parsed text
// entities all normalize into Record before integration.
package record

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the primitive types a Value may hold.
type Kind int

// The supported value kinds, roughly the scalar types of the paper's
// internal RDBMS.
const (
	KindNull Kind = iota
	KindString
	KindInt
	KindFloat
	KindBool
	KindTime
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	case KindTime:
		return "time"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Value is an immutable typed scalar. The zero Value is Null.
type Value struct {
	// A value holds its payload and nothing more. A KindTime keeps its Unix
	// seconds in n and, in s, the nanoseconds and zone offset timeExtra
	// packs: "" for a whole second in UTC, which is every time the codec
	// and the date layouts produce.
	s    string // KindString: the string
	n    uint64 // KindInt: the int64; KindFloat: its bits; KindBool: 1 for true
	kind Kind
}

// Null is the null value.
var Null = Value{}

// String returns a string value.
func String(s string) Value { return Value{kind: KindString, s: s} }

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, n: uint64(i)} }

// Float returns a floating-point value.
func Float(f float64) Value { return Value{kind: KindFloat, n: math.Float64bits(f)} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	if b {
		return Value{kind: KindBool, n: 1}
	}
	return Value{kind: KindBool}
}

// Time returns a timestamp value. AsTime gives back its instant and zone
// offset; the zone's name is not kept.
func Time(t time.Time) Value {
	_, offset := t.Zone()
	return Value{kind: KindTime, n: uint64(t.Unix()), s: timeExtra(t.Nanosecond(), offset)}
}

// timeExtra packs a time's nanoseconds and zone offset in seconds into eight
// little-endian bytes, or "" when both are zero.
func timeExtra(nsec, offset int) string {
	if nsec == 0 && offset == 0 {
		return ""
	}
	var b [8]byte
	binary.LittleEndian.PutUint32(b[:4], uint32(nsec))
	binary.LittleEndian.PutUint32(b[4:], uint32(int32(offset)))
	return string(b[:])
}

// unpackTimeExtra undoes timeExtra.
func unpackTimeExtra(s string) (nsec, offset int) {
	if s == "" {
		return 0, 0
	}
	b := []byte(s)
	return int(binary.LittleEndian.Uint32(b[:4])), int(int32(binary.LittleEndian.Uint32(b[4:])))
}

// time rebuilds the time.Time of a KindTime value.
func (v Value) time() time.Time {
	nsec, offset := unpackTimeExtra(v.s)
	t := time.Unix(int64(v.n), int64(nsec))
	if offset == 0 {
		return t.UTC()
	}
	return t.In(time.FixedZone("", offset))
}

// Kind reports the kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is the null value.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Str returns the string payload; for non-string kinds it returns the
// canonical textual rendering.
func (v Value) Str() string {
	switch v.kind {
	case KindString:
		return v.s
	default:
		return v.String()
	}
}

// AppendStr appends the bytes Str returns to dst and returns the extended
// slice, without allocating when dst has room.
func (v Value) AppendStr(dst []byte) []byte {
	switch v.kind {
	case KindString:
		return append(dst, v.s...)
	case KindInt:
		return strconv.AppendInt(dst, int64(v.n), 10)
	case KindFloat:
		return strconv.AppendFloat(dst, math.Float64frombits(v.n), 'g', -1, 64)
	case KindBool:
		return strconv.AppendBool(dst, v.n != 0)
	case KindTime:
		return v.appendTime(dst)
	default:
		return dst
	}
}

// appendTime appends a KindTime value's rendering: the RFC 3339 date at
// midnight, the RFC 3339 date and time otherwise. It reads the wall clock of
// the value's zone off the instant shifted by the zone's offset, in UTC, and
// writes the offset itself as time.RFC3339 does, so that no time.Location
// is built.
func (v Value) appendTime(dst []byte) []byte {
	nsec, offset := unpackTimeExtra(v.s)
	t := time.Unix(int64(v.n)+int64(offset), int64(nsec)).UTC()
	if t.Hour() == 0 && t.Minute() == 0 && t.Second() == 0 {
		return t.AppendFormat(dst, "2006-01-02")
	}
	dst = t.AppendFormat(dst, "2006-01-02T15:04:05")
	if offset == 0 {
		return append(dst, 'Z')
	}
	// time.Format's zone: minutes truncated toward zero, hours and minutes
	// at least two digits each.
	zone, sign := offset/60, byte('+')
	if zone < 0 {
		zone, sign = -zone, '-'
	}
	dst = appendTwoDigits(append(dst, sign), zone/60)
	return appendTwoDigits(append(dst, ':'), zone%60)
}

// appendTwoDigits appends n >= 0 in decimal, zero-padded to two digits.
func appendTwoDigits(dst []byte, n int) []byte {
	if n < 10 {
		dst = append(dst, '0')
	}
	return strconv.AppendInt(dst, int64(n), 10)
}

// AsInt returns the value as an int64 and whether the conversion is exact.
func (v Value) AsInt() (int64, bool) {
	switch v.kind {
	case KindInt:
		return int64(v.n), true
	case KindFloat:
		if f := math.Float64frombits(v.n); f == math.Trunc(f) && !math.IsInf(f, 0) {
			return int64(f), true
		}
		return 0, false
	case KindBool:
		return int64(v.n), true
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
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindFloat:
		return math.Float64frombits(v.n), true
	case KindInt:
		return float64(int64(v.n)), true
	case KindBool:
		return float64(v.n), true
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
func (v Value) AsBool() (bool, bool) {
	switch v.kind {
	case KindBool, KindInt:
		return v.n != 0, true
	case KindString:
		// strconv.ParseBool of the lower-cased text, without the copy or the
		// error: equalFoldASCII agrees with strings.ToLower on these words.
		s := strings.TrimSpace(v.s)
		switch {
		case s == "1" || equalFoldASCII(s, "t") || equalFoldASCII(s, "true"):
			return true, true
		case s == "0" || equalFoldASCII(s, "f") || equalFoldASCII(s, "false"):
			return false, true
		}
		return false, false
	default:
		return false, false
	}
}

// AsTime returns the value as a time.Time and whether a temporal reading
// exists. Strings are parsed with ParseTime.
func (v Value) AsTime() (time.Time, bool) {
	switch v.kind {
	case KindTime:
		return v.time(), true
	case KindString:
		t, err := ParseTime(v.s)
		return t, err == nil
	default:
		return time.Time{}, false
	}
}

// String renders the value for display: strings verbatim, numbers in their
// shortest form, times in RFC 3339 date or datetime form.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return ""
	case KindString:
		return v.s
	case KindInt:
		return strconv.FormatInt(int64(v.n), 10)
	case KindFloat:
		return strconv.FormatFloat(math.Float64frombits(v.n), 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.n != 0)
	case KindTime:
		var b [32]byte
		return string(v.appendTime(b[:0]))
	default:
		return ""
	}
}

// Equal reports deep equality of two values. Numeric kinds compare by value,
// so Int(3) equals Float(3).
func (v Value) Equal(o Value) bool { return Compare(v, o) == 0 }

// Compare orders two values. Nulls sort first; mixed numeric kinds compare
// numerically; otherwise kinds order by Kind, then payload.
func Compare(a, b Value) int {
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
		return cmp.Compare(a.n, b.n)
	case KindTime:
		// Unix seconds, then the nanoseconds within the second.
		if c := cmp.Compare(int64(a.n), int64(b.n)); c != 0 {
			return c
		}
		an, _ := unpackTimeExtra(a.s)
		bn, _ := unpackTimeExtra(b.s)
		return cmp.Compare(an, bn)
	default:
		return 0
	}
}

func (v Value) numeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// timeLayouts lists the textual date/time formats recognized by ParseTime,
// including the US-style forms that appear in the Broadway FTABLES sources.
var timeLayouts = []string{
	time.RFC3339,
	"2006-01-02 15:04:05",
	"2006-01-02",
	"1/2/2006",
	"01/02/2006",
	"Jan 2, 2006",
	"January 2, 2006",
	"2 Jan 2006",
}

// ErrUnrecognizedTime is what ParseTime returns for a string none of its
// layouts parse. It is returned bare so that the failure, which is the common
// case when inferring types over text, allocates nothing; callers that report
// it add the string.
var ErrUnrecognizedTime = errors.New("record: unrecognized time")

// ParseTime parses s against the supported layouts.
func ParseTime(s string) (time.Time, error) {
	s = strings.TrimSpace(s)
	if !timeShape(s) {
		return time.Time{}, ErrUnrecognizedTime
	}
	for _, layout := range timeLayouts {
		if !layoutFits(layout, s) {
			continue
		}
		if t, err := time.Parse(layout, s); err == nil {
			return t, nil
		}
	}
	return time.Time{}, ErrUnrecognizedTime
}

// layoutFits reports whether s, which timeShape accepted (so it has at least
// 8 bytes), could parse under layout, judging by the bytes the layout's
// first fields fix: a year is four bytes and a month number or a day one or
// two digits, each followed by its literal separator, and a month name
// starts with a letter. A date-and-time layout needs its separator after the
// ten bytes of its date. It is false only where time.Parse fails, so the
// first layout that parses still decides, and an ISO date or a US date no
// longer pays for the errors of the layouts before its own.
func layoutFits(layout, s string) bool {
	switch layout {
	case time.RFC3339:
		return s[4] == '-' && len(s) > len("2006-01-02") && s[10] == 'T'
	case "2006-01-02 15:04:05":
		return s[4] == '-' && len(s) > len("2006-01-02") && s[10] == ' '
	case "2006-01-02":
		return s[4] == '-'
	case "1/2/2006", "01/02/2006":
		return s[1] == '/' || s[2] == '/'
	case "2 Jan 2006":
		return s[1] == ' ' || s[2] == ' '
	default: // a month name first
		return !isDigit(s[0])
	}
}

// timeShape reports whether s could match one of timeLayouts, judging by its
// first bytes only: a four-digit year and '-', a one- or two-digit number
// and '/' or ' ', or a month name. It holds for every string a layout
// parses; a string it refuses is spared eight time.Parse errors.
func timeShape(s string) bool {
	if len(s) < 8 { // "1/2/2006"
		return false
	}
	if isDigit(s[0]) {
		return s[1] == '/' || s[2] == '/' || s[1] == ' ' || s[2] == ' ' || s[4] == '-'
	}
	const months = "janfebmaraprmayjunjulaugsepoctnovdec"
	for i := 0; i < len(months); i += 3 {
		if equalFoldASCII(s[:3], months[i:i+3]) {
			return true
		}
	}
	return false
}

// numberShape reports, from the bytes of the trimmed string s alone, whether
// s is written as a base-10 integer (an optional sign and digits) and whether
// it could be a float strconv.ParseFloat accepts: every string ParseInt or
// ParseFloat parses has the shape, and text that does not is refused before
// strconv builds an error for it.
func numberShape(s string) (integer, float bool) {
	if s != "" && (s[0] == '+' || s[0] == '-') {
		s = s[1:]
	}
	if s == "" {
		return false, false
	}
	if !isDigit(s[0]) && s[0] != '.' {
		return false, equalFoldASCII(s, "inf") || equalFoldASCII(s, "infinity") || equalFoldASCII(s, "nan")
	}
	integer = s[0] != '.'
	for i := 1; i < len(s); i++ {
		switch c := s[i]; {
		case isDigit(c):
		case c == '+' || c == '-':
			// Only an exponent is signed: 1e-3, 0x1p-2.
			if prev := s[i-1] | 0x20; prev != 'e' && prev != 'p' {
				return false, false
			}
			integer = false
		case c == '.' || c == '_' || c|0x20 == 'x' || c|0x20 == 'p' || 'a' <= c|0x20 && c|0x20 <= 'f':
			integer = false
		default:
			return false, false
		}
	}
	return integer, true
}

// ParseNumber reads s as a number: it succeeds exactly when Infer(s) is an
// Int or a Float, with that value. Text that is not a number costs no
// allocation.
func ParseNumber(s string) (float64, bool) {
	s = strings.TrimSpace(s)
	integer, float := numberShape(s)
	if integer {
		if i, err := strconv.ParseInt(s, 10, 64); err == nil {
			return float64(i), true
		}
	}
	if !float {
		return 0, false
	}
	f, err := strconv.ParseFloat(s, 64)
	return f, err == nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// equalFoldASCII reports whether s equals lower, an all-lower-case ASCII
// word, up to the case of its ASCII letters. No other rune lower-cases to an
// ASCII letter of "true", "false", "inf", "nan" or a month name, so for these
// words it agrees with comparing strings.ToLower(s).
func equalFoldASCII(s, lower string) bool {
	if len(s) != len(lower) {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

// Infer parses s into the most specific Value: empty → Null, then int,
// float, bool, time, falling back to String.
func Infer(s string) Value {
	trimmed := strings.TrimSpace(s)
	if trimmed == "" {
		return Null
	}
	integer, float := numberShape(trimmed)
	if integer {
		if i, err := strconv.ParseInt(trimmed, 10, 64); err == nil {
			return Int(i)
		}
	}
	if float {
		if f, err := strconv.ParseFloat(trimmed, 64); err == nil {
			return Float(f)
		}
	}
	switch {
	case equalFoldASCII(trimmed, "true"):
		return Bool(true)
	case equalFoldASCII(trimmed, "false"):
		return Bool(false)
	}
	if t, err := ParseTime(trimmed); err == nil {
		return Time(t)
	}
	return String(s)
}
