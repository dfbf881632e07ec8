package record

import (
	"fmt"
	"strings"
)

// Record is a flat tuple: an ordered list of (field, value) pairs with
// case-preserving field names and case-insensitive lookup. Records carry
// provenance (the source they came from) so consolidation can explain merges.
type Record struct {
	fields []Field
	index  map[string]int // normalized name -> position
	Source string         // originating source name, if known
	ID     string         // stable identifier within the source, if known
}

// Field is a single named value inside a Record.
type Field struct {
	Name  string
	Value Value
}

// NormalizeName canonicalizes a field name for lookup and matching:
// lower-case, trimmed, with separators collapsed to single underscores.
func NormalizeName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	lastUnderscore := true // swallow leading separators
	for _, r := range strings.TrimSpace(strings.ToLower(name)) {
		switch {
		case r == ' ' || r == '-' || r == '_' || r == '.' || r == '/':
			if !lastUnderscore {
				b.WriteByte('_')
				lastUnderscore = true
			}
		default:
			b.WriteRune(r)
			lastUnderscore = false
		}
	}
	return strings.TrimSuffix(b.String(), "_")
}

// New returns an empty record.
func New() *Record {
	return &Record{index: make(map[string]int)}
}

// Len reports the number of fields.
func (r *Record) Len() int { return len(r.fields) }

// Fields returns the fields in insertion order. The slice is shared; callers
// must not mutate it.
func (r *Record) Fields() []Field { return r.fields }

// Set stores value under name, replacing any existing field whose normalized
// name matches.
func (r *Record) Set(name string, value Value) {
	key := NormalizeName(name)
	if r.index == nil {
		r.index = make(map[string]int)
	}
	if i, ok := r.index[key]; ok {
		r.fields[i] = Field{Name: name, Value: value}
		return
	}
	r.index[key] = len(r.fields)
	r.fields = append(r.fields, Field{Name: name, Value: value})
}

// Get returns the value stored under name (case-insensitive) and whether it
// exists.
func (r *Record) Get(name string) (Value, bool) {
	if r.index == nil {
		return Null, false
	}
	i, ok := r.index[NormalizeName(name)]
	if !ok {
		return Null, false
	}
	return r.fields[i].Value, true
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
	_, ok := r.Get(name)
	return ok
}

// Delete removes the field with the given name, if present, preserving the
// order of the remaining fields.
func (r *Record) Delete(name string) {
	key := NormalizeName(name)
	i, ok := r.index[key]
	if !ok {
		return
	}
	r.fields = append(r.fields[:i], r.fields[i+1:]...)
	delete(r.index, key)
	for k, j := range r.index {
		if j > i {
			r.index[k] = j - 1
		}
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
func (r *Record) Clone() *Record {
	c := &Record{
		fields: make([]Field, len(r.fields)),
		index:  make(map[string]int, len(r.index)),
		Source: r.Source,
		ID:     r.ID,
	}
	copy(c.fields, r.fields)
	for k, v := range r.index {
		c.index[k] = v
	}
	return c
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
