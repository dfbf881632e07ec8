package record

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Record is a flat tuple: an ordered list of (field, value) pairs with
// case-preserving field names and case-insensitive lookup. Records carry
// provenance (the source they came from) so consolidation can explain merges.
//
// A record is its field list and nothing more. Set, Get and Delete find a
// field by a linear scan that compares names under NormalizeName's rules
// without building the normalized names; records are small (a source row has
// 5-20 attributes, and ingest refuses a row of more than
// ingest.MaxRecordFields), so a scan costs less than an index per record.
type Record struct {
	fields []Field
	Source string // originating source name, if known
	ID     string // stable identifier within the source, if known
}

// Field is a single named value inside a Record.
type Field struct {
	Name  string
	Value Value
}

// NormalizeName canonicalizes a field name for lookup and matching:
// lower-case, trimmed, with separators collapsed to single underscores. A
// name that is already normal is returned as it is.
func NormalizeName(name string) string {
	if isNormalName(name) {
		return name
	}
	var b strings.Builder
	b.Grow(len(name))
	sc := newNameScanner(name)
	for r := sc.next(); r >= 0; r = sc.next() {
		b.WriteRune(r)
	}
	return b.String()
}

// isNameSep reports whether r is one of the separators NormalizeName
// collapses to an underscore.
func isNameSep(r rune) bool {
	return r == ' ' || r == '-' || r == '_' || r == '.' || r == '/'
}

// isNormalName reports whether NormalizeName(name) == name, byte for byte,
// without building the normalized name.
func isNormalName(name string) bool {
	sc, i := newNameScanner(name), 0
	for r := sc.next(); r >= 0; r = sc.next() {
		if r < utf8.RuneSelf {
			if i == len(name) || name[i] != byte(r) {
				return false
			}
			i++
			continue
		}
		// An invalid byte reads as utf8.RuneError but is not its encoding.
		got, w := utf8.DecodeRuneInString(name[i:])
		if got != r || w != utf8.RuneLen(r) {
			return false
		}
		i += w
	}
	return i == len(name)
}

// nameScanner yields the runes of NormalizeName(name) one at a time without
// building the string: the runes of the trimmed name lower-cased (an invalid
// byte reads as utf8.RuneError), leading and trailing separators dropped and
// each inner run of separators read as one '_'.
type nameScanner struct {
	s       string // the name with surrounding white space trimmed
	i       int    // next byte of s to read
	started bool   // a non-separator rune has been returned
	held    rune   // rune read past a separator run, returned after its '_'; -1 if none
}

func newNameScanner(name string) nameScanner {
	return nameScanner{s: strings.TrimSpace(name), held: -1}
}

// next returns the next rune of the normalized name, or -1 at its end.
func (sc *nameScanner) next() rune {
	if r := sc.held; r >= 0 {
		sc.held = -1
		return r
	}
	sep := false
	for sc.i < len(sc.s) {
		r, w := rune(sc.s[sc.i]), 1
		switch {
		case r >= utf8.RuneSelf:
			r, w = utf8.DecodeRuneInString(sc.s[sc.i:])
			r = unicode.ToLower(r)
		case 'A' <= r && r <= 'Z':
			r += 'a' - 'A'
		}
		sc.i += w
		if isNameSep(r) {
			sep = true
			continue
		}
		if sep && sc.started {
			sc.held = r
			return '_'
		}
		sc.started = true
		return r
	}
	return -1
}

// NameEqual reports whether NormalizeName(a) == NormalizeName(b), without
// allocating.
func NameEqual(a, b string) bool {
	if a == b {
		return true
	}
	sa, sb := newNameScanner(a), newNameScanner(b)
	for {
		ra, rb := sa.next(), sb.next()
		if ra != rb {
			return false
		}
		if ra < 0 {
			return true
		}
	}
}

// New returns an empty record.
func New() *Record { return &Record{} }

// NewCap returns an empty record with room for n fields.
func NewCap(n int) *Record { return &Record{fields: make([]Field, 0, n)} }

// Len reports the number of fields.
func (r *Record) Len() int { return len(r.fields) }

// Fields returns the fields in insertion order. The slice is shared; callers
// must not mutate it.
func (r *Record) Fields() []Field { return r.fields }

// find returns the position of the field whose name normalizes like name, or
// -1.
func (r *Record) find(name string) int {
	for i := range r.fields {
		if NameEqual(r.fields[i].Name, name) {
			return i
		}
	}
	return -1
}

// Set stores value under name, replacing any existing field whose normalized
// name matches.
func (r *Record) Set(name string, value Value) {
	if i := r.find(name); i >= 0 {
		r.fields[i] = Field{Name: name, Value: value}
		return
	}
	r.fields = append(r.fields, Field{Name: name, Value: value})
}

// Append adds a field at the end without looking for one whose name
// normalizes like name: the caller guarantees there is none, and Set is what
// to call otherwise.
func (r *Record) Append(name string, value Value) {
	r.fields = append(r.fields, Field{Name: name, Value: value})
}

// Get returns the value stored under name (case-insensitive) and whether it
// exists.
func (r *Record) Get(name string) (Value, bool) {
	if i := r.find(name); i >= 0 {
		return r.fields[i].Value, true
	}
	return Null, false
}

// GetString returns the string rendering of the value under name, or "" if
// absent or null.
func (r *Record) GetString(name string) string {
	v, ok := r.Get(name)
	if !ok || v.IsNull() {
		return ""
	}
	return v.Str()
}

// Has reports whether a field with the given (normalized) name exists.
func (r *Record) Has(name string) bool {
	return r.find(name) >= 0
}

// Delete removes the field with the given name, if present, preserving the
// order of the remaining fields.
func (r *Record) Delete(name string) {
	if i := r.find(name); i >= 0 {
		r.fields = append(r.fields[:i], r.fields[i+1:]...)
	}
}

// Rename moves the value under from to the field name to. It is a no-op when
// from is absent.
func (r *Record) Rename(from, to string) {
	v, ok := r.Get(from)
	if !ok {
		return
	}
	r.Delete(from)
	r.Set(to, v)
}

// Clone returns a deep copy of the record.
func (r *Record) Clone() *Record { return r.CloneCap(len(r.fields)) }

// CloneCap returns a deep copy of the record with room for n fields, so
// that a caller adding fields to the copy grows it once, here.
func (r *Record) CloneCap(n int) *Record {
	fields := make([]Field, len(r.fields), max(n, len(r.fields)))
	copy(fields, r.fields)
	return &Record{fields: fields, Source: r.Source, ID: r.ID}
}

// String renders the record as {name=value, ...} in field order.
func (r *Record) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, f := range r.fields {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%s", f.Name, f.Value.String())
	}
	b.WriteByte('}')
	return b.String()
}
