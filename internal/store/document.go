// Package store implements the sharded semi-structured document store the
// paper's text pipeline lands in (a MongoDB deployment in the original
// system): namespaced collections, fixed-size extents, hash, B-tree and
// inverted-text indexes, and stats() output in the shape of the paper's
// Tables I and II.
//
// Everything that reads by filter is one op, Query: a filter, an offset, a
// limit, and the exact match total. A Collection answers it with at most
// the window's documents — from an index's posting lists when one covers
// the filter's condition, else by testing every document without collecting
// the ones outside the window — and a Sharded router asks each shard for
// its first offset+limit matches and cuts the window from their
// concatenation. Limit 0 is the count, NoLimit the whole list, Explain the
// plan. Matching a document allocates nothing.
//
// GroupBy makes the same op a group count: every match counted by its
// scalar value at a path, keys in the order of their first match, merged
// across shards in shard order — Table III's type distribution (Distinct)
// and Table IV's mention ranking. Unfiltered, it reads posting-list lengths
// off a hash index over the path, as long as that index holds no
// list-element keys (a list is no scalar value, yet its elements are
// indexed, so the lengths would over-count); otherwise it visits the
// matches under the read lock. Stats reads a data-size counter every
// mutation keeps.
package store

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/record"
)

// DocValue is a node in a semi-structured document tree: a scalar, a nested
// document, or a list of values. The zero DocValue is the null scalar.
type DocValue struct {
	// Which pointer is set tells the three apart; neither is a scalar.
	scalar record.Value
	doc    *Doc        // a nested document; nilDoc for Nested(nil)
	list   *[]DocValue // a list, never nil for one
}

// nilDoc stands in for the nil document Nested(nil) wraps, so that the
// value still reads as nested.
var nilDoc = &Doc{}

// Scalar wraps a record.Value as a document value.
func Scalar(v record.Value) DocValue { return DocValue{scalar: v} }

// Str is shorthand for a string scalar.
func Str(s string) DocValue { return Scalar(record.String(s)) }

// Num is shorthand for an integer scalar.
func Num(i int64) DocValue { return Scalar(record.Int(i)) }

// Nested wraps a sub-document.
func Nested(d *Doc) DocValue {
	if d == nil {
		d = nilDoc
	}
	return DocValue{doc: d}
}

// List wraps a list of values.
func List(vs ...DocValue) DocValue { return DocValue{list: &vs} }

// IsScalar reports whether v is a scalar.
func (v DocValue) IsScalar() bool { return v.doc == nil && v.list == nil }

// IsDoc reports whether v is a nested document.
func (v DocValue) IsDoc() bool { return v.doc != nil }

// IsList reports whether v is a list.
func (v DocValue) IsList() bool { return v.list != nil }

// Scalar returns the scalar payload (Null for non-scalars).
func (v DocValue) Scalar() record.Value { return v.scalar }

// Doc returns the nested document payload, or nil.
func (v DocValue) Doc() *Doc {
	if v.doc == nilDoc {
		return nil
	}
	return v.doc
}

// List returns the list payload, or nil.
func (v DocValue) List() []DocValue {
	if v.list == nil {
		return nil
	}
	return *v.list
}

// String renders the value compactly for debugging.
func (v DocValue) String() string {
	switch {
	case v.IsDoc():
		return v.Doc().String()
	case v.IsList():
		parts := make([]string, len(v.List()))
		for i, e := range v.List() {
			parts[i] = e.String()
		}
		return "[" + strings.Join(parts, ", ") + "]"
	default:
		return v.scalar.String()
	}
}

// sizeBytes estimates the on-disk footprint of the value, used by extent
// accounting. The constants approximate a BSON-like encoding overhead.
func (v DocValue) sizeBytes() int64 {
	const scalarOverhead = 16
	switch {
	case v.IsDoc():
		return v.Doc().SizeBytes()
	case v.IsList():
		var n int64 = 8
		for _, e := range v.List() {
			n += e.sizeBytes()
		}
		return n
	default:
		return scalarOverhead + int64(len(v.scalar.Str()))
	}
}

// Doc is an ordered semi-structured document. Documents hold a handful of
// fields, so lookup is a scan of the field list and there is no index to
// build, copy or keep in step.
type Doc struct {
	fields []docField
}

type docField struct {
	name  string
	value DocValue
}

// NewDoc returns an empty document.
func NewDoc() *Doc { return &Doc{} }

// NewDocCap returns an empty document with room for n fields.
func NewDocCap(n int) *Doc { return &Doc{fields: make([]docField, 0, n)} }

// Set stores value under name, replacing any existing field in place.
func (d *Doc) Set(name string, value DocValue) *Doc {
	for i := range d.fields {
		if d.fields[i].name == name {
			d.fields[i].value = value
			return d
		}
	}
	if d.fields == nil {
		// Most documents hold three or four fields; skip the 1-2-4 growth.
		d.fields = make([]docField, 0, 4)
	}
	d.fields = append(d.fields, docField{name: name, value: value})
	return d
}

// Get returns the value under name and whether it exists.
func (d *Doc) Get(name string) (DocValue, bool) {
	if d == nil {
		return DocValue{}, false
	}
	for i := range d.fields {
		if d.fields[i].name == name {
			return d.fields[i].value, true
		}
	}
	return DocValue{}, false
}

// Len reports the number of top-level fields.
func (d *Doc) Len() int {
	if d == nil {
		return 0
	}
	return len(d.fields)
}

// Names returns field names in insertion order.
func (d *Doc) Names() []string {
	names := make([]string, len(d.fields))
	for i, f := range d.fields {
		names[i] = f.name
	}
	return names
}

// Path resolves a dotted path like "entity.name" into the document tree,
// returning the value and whether the full path exists. List elements are
// not addressable by path; a path ending at a list returns the list value.
func (d *Doc) Path(path string) (DocValue, bool) {
	cur := d
	for {
		part, rest, nested := strings.Cut(path, ".")
		v, ok := cur.Get(part)
		if !ok || !nested {
			return v, ok
		}
		if !v.IsDoc() {
			return DocValue{}, false
		}
		cur, path = v.Doc(), rest
	}
}

// PathString resolves path and returns the scalar string rendering ("" when
// absent or non-scalar).
func (d *Doc) PathString(path string) string {
	v, ok := d.Path(path)
	if !ok || !v.IsScalar() {
		return ""
	}
	return v.Scalar().Str()
}

// SizeBytes estimates the encoded footprint of the document.
func (d *Doc) SizeBytes() int64 { return d.SizeBytesOf(nil) }

// SizeBytesOf is SizeBytes over the projection PutDocFields writes: the
// top-level fields named in fields, every field when the list is empty.
func (d *Doc) SizeBytesOf(fields []string) int64 {
	var n int64 = 16 // header
	for _, f := range d.fields {
		if len(fields) == 0 || slices.Contains(fields, f.name) {
			n += int64(len(f.name)) + 2 + f.value.sizeBytes()
		}
	}
	return n
}

// String renders the document as {name: value, ...}.
func (d *Doc) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, f := range d.fields {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s: %s", f.name, f.value.String())
	}
	b.WriteByte('}')
	return b.String()
}

// FromRecord converts a flat record into a one-level document.
//
//lint:dtlint-allow deadcheck TestPutRecordMatchesPutDoc: reference
func FromRecord(r *record.Record) *Doc {
	d := NewDocCap(r.Len())
	for _, f := range r.Fields() {
		d.Set(f.Name, Scalar(f.Value))
	}
	return d
}

// ToRecord converts the document's scalar top-level fields into a flat
// record, skipping nested documents and lists.
func (d *Doc) ToRecord() *record.Record {
	r := record.New()
	for _, f := range d.fields {
		if f.value.IsScalar() {
			r.Set(f.name, f.value.Scalar())
		}
	}
	return r
}
