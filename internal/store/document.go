// Package store implements the sharded semi-structured document store the
// paper's text pipeline lands in (a MongoDB deployment in the original
// system): namespaced collections, fixed-size extents, hash, B-tree and
// inverted-text indexes, and stats() output in the shape of the paper's
// Tables I and II.
//
// A collection is its documents in ascending id order, two slices side by
// side: ids and documents. It only appends — the curator's batch load and
// streaming ingest both add documents, and fusion reconciles conflicting
// values when it reads them, so nothing replaces or removes a stored one.
// Ids are handed out ascending, so an insert appends; a replayed document —
// a follower's or a WAL recovery's — goes above every id held, and a
// snapshot lists its documents ascending, which its reader checks. A scan,
// every hash and B-tree posting list, the text postings and a snapshot
// therefore list documents in one order by construction, and an index only
// ever appends an id to a posting list. A document is found by id at its
// offset from the first id, searching back over as many places as ids are
// missing: a replay may jump ids, and an image an older build wrote may
// lack the ones it deleted.
//
// A document comes in two forms (see Doc). A built one is a field list,
// what a caller gets from NewDoc and Set. A stored one is its codec
// encoding, read in place: everything that already holds a document's
// bytes — the text writer's output (AdoptDocs), a snapshot, a WAL event, a
// pull image, a node's insert body and the router's window of a shard's
// reply — adopts them, checked once, instead of decoding them into fields,
// and the collections, local, durable and clustered, hold what they are
// given. Index keys, the text index, filters, ranking, routing, Stats'
// sizes, snapshots and the wire all read a stored document where it lies:
// a string value it hands out aliases its bytes, so reading every field of
// one allocates nothing.
//
// Everything that reads by filter is one op, Query: a filter, an offset, a
// limit, and the exact match total. A Collection answers it with at most
// the window's documents — from an index's posting lists when one covers
// the filter's condition, else by testing every document without collecting
// the ones outside the window. A Sharded router asks each shard for its
// first offset+limit matches and cuts the window from their concatenation.
// A remote shard's list reaches the router still encoded (Result.Encoded, a
// DocList), and the router goes over each list once: it builds the
// documents that fall in the window and only checks the others, building
// nothing for them, so a page over four shards builds a page, not four, yet
// a malformed document anywhere in a reply still fails the query. Limit 0
// is the count, NoLimit the whole list, Explain the plan. Matching a
// document allocates nothing.
//
// A Rank makes the same op a relevance ranking — a show's text feed, the
// paper's Table V. The window then comes best first: a collection scores
// every match by its best sentence at the rank's path, keeps the best
// offset+limit in a bounded heap and cuts the offset, counting every match
// for the total and groups as ever; a router asks each shard for its best
// offset+limit, scores the at most shards × (offset+limit) returned
// documents again and cuts the window from their merge. Ties break by
// length, text and then the sharded order, so that merge is the ranking of
// all matches, and no shard ships more than offset+limit documents.
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
	// Which pointer is set tells the three apart; neither is a scalar. A
	// nested document or a list read off a stored document is the sentinel
	// storedDoc or storedList, and scalar then holds the bytes that encode
	// it, as a string aliasing the document's.
	scalar record.Value
	doc    *Doc        // a nested document; nilDoc for Nested(nil)
	list   *[]DocValue // a list, never nil for one
}

// nilDoc stands in for the nil document Nested(nil) wraps, so that the
// value still reads as nested.
var nilDoc = &Doc{}

// storedDoc and storedList mark a nested document and a list that are the
// bytes of a stored document (see DocValue).
var (
	storedDoc  = &Doc{}
	storedList = &[]DocValue{}
)

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
func (v DocValue) Scalar() record.Value {
	if !v.IsScalar() {
		return record.Null
	}
	return v.scalar
}

// Doc returns the nested document payload, or nil. A nested value read off
// a stored document gives a stored document, allocated here.
func (v DocValue) Doc() *Doc {
	switch v.doc {
	case nilDoc:
		return nil
	case storedDoc:
		return &Doc{raw: v.scalar.Str()}
	}
	return v.doc
}

// List returns the list payload, or nil. A list read off a stored document
// is built here, its elements read as the document's accessors read them.
func (v DocValue) List() []DocValue {
	switch v.list {
	case nil:
		return nil
	case storedList:
		it := v.elems()
		list := make([]DocValue, 0, it.left)
		for e, ok := it.next(); ok; e, ok = it.next() {
			list = append(list, e)
		}
		return list
	}
	return *v.list
}

// elems iterates a list value's elements, in either form, building
// nothing.
type elems struct {
	built []DocValue
	w     walker[string]
	left  int // stored elements not yet read
}

// elems returns the iterator over v's elements: none unless v is a list.
func (v DocValue) elems() elems {
	if v.list != storedList {
		return elems{built: v.List()}
	}
	it := elems{w: walker[string]{b: v.scalar.Str()}}
	n, _ := it.w.uvarint()
	it.left = int(n)
	return it
}

// next returns the next element; ok is false after the last.
func (it *elems) next() (DocValue, bool) {
	if it.left > 0 {
		it.left--
		return storedValue(&it.w), true
	}
	if len(it.built) > 0 {
		e := it.built[0]
		it.built = it.built[1:]
		return e, true
	}
	return DocValue{}, false
}

// String renders the value compactly for debugging.
func (v DocValue) String() string {
	switch {
	case v.IsDoc():
		return v.Doc().String()
	case v.IsList():
		var parts []string
		it := v.elems()
		for e, ok := it.next(); ok; e, ok = it.next() {
			parts = append(parts, e.String())
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
	case v.doc == storedDoc:
		return storedSize(&walker[string]{b: v.scalar.Str()}, tagNested)
	case v.list == storedList:
		return storedSize(&walker[string]{b: v.scalar.Str()}, tagList)
	case v.IsDoc():
		return v.Doc().SizeBytes()
	case v.IsList():
		var n int64 = 8
		for _, e := range v.List() {
			n += e.sizeBytes()
		}
		return n
	case v.scalar.Kind() == record.KindString:
		return scalarOverhead + int64(len(v.scalar.Str()))
	default:
		var buf [64]byte // a rendering of any other kind fits
		return scalarOverhead + int64(len(v.scalar.AppendStr(buf[:0])))
	}
}

// member returns the field name of the nested document v, and whether v
// is one holding it.
func (v DocValue) member(name string) (DocValue, bool) {
	if v.doc == storedDoc {
		return storedGet(v.scalar.Str(), name)
	}
	return v.doc.Get(name)
}

// Doc is an ordered semi-structured document, in one of two forms. A built
// document is its field list: NewDoc and Set make one, and Set keeps
// making one for callers that build documents. A stored document is
// immutable codec bytes, what PutDoc writes for it, read in place: the
// store adopts them (AdoptDoc, AdoptDocs, and every reader of snapshots,
// WAL events and wire lists) after checking them once, so no accessor can
// fail on them later. Get, Path, PathString, Len, Field, SizeBytes,
// SizeBytesOf and ToRecord read both forms alike. On a stored document
// they allocate nothing for a scalar or for a nested document or list
// (nested values are handed out as their bytes), and a string value
// aliases the document's bytes: it is a substring of an immutable string,
// so it cannot change, and holding it keeps the bytes alive, as a built
// document's strings keep theirs. DocValue.Doc and List may allocate on a
// nested value read off a stored document. Set on a stored document turns
// it into a built one first.
//
// Documents hold a handful of fields, so lookup is a scan of the fields
// in either form and there is no index to build, copy or keep in step.
type Doc struct {
	fields []docField
	raw    string // the stored form's bytes; "" for a built document
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
	if d.raw != "" {
		w := walker[string]{b: d.raw}
		built, _ := w.doc(true)
		d.fields, d.raw = built.fields, ""
	}
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
	if d.raw != "" {
		return storedGet(d.raw, name)
	}
	for i := range d.fields {
		if d.fields[i].name == name {
			return d.fields[i].value, true
		}
	}
	return DocValue{}, false
}

// storedGet is Get on a stored document's bytes.
func storedGet(raw, name string) (DocValue, bool) {
	for c := cursorOf(raw); ; c.skip() {
		n, _, ok := c.next()
		if !ok {
			return DocValue{}, false
		}
		if n == name {
			return c.value(), true
		}
	}
}

// Len reports the number of top-level fields.
func (d *Doc) Len() int {
	switch {
	case d == nil:
		return 0
	case d.raw != "":
		return cursorOf(d.raw).left
	}
	return len(d.fields)
}

// Field returns the name and value of the i-th top-level field, in
// insertion order; 0 <= i < Len().
func (d *Doc) Field(i int) (string, DocValue) {
	if d.raw != "" {
		c := cursorOf(d.raw)
		for ; i > 0; i-- {
			c.next()
			c.skip()
		}
		name, _, _ := c.next()
		return name, c.value()
	}
	f := &d.fields[i]
	return f.name, f.value
}

// Path resolves a dotted path like "entity.name" into the document tree,
// returning the value and whether the full path exists. List elements are
// not addressable by path; a path ending at a list returns the list value.
func (d *Doc) Path(path string) (DocValue, bool) {
	if d != nil && d.raw != "" {
		return storedPath(d.raw, path)
	}
	cur := Nested(d)
	for {
		part, rest, nested := strings.Cut(path, ".")
		v, ok := cur.member(part)
		if !ok || !nested {
			return v, ok
		}
		if !v.IsDoc() {
			return DocValue{}, false
		}
		cur, path = v, rest
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
// A stored document's is its built form's.
func (d *Doc) SizeBytesOf(fields []string) int64 {
	if d.raw != "" {
		return storedDocSize(&walker[string]{b: d.raw}, fields)
	}
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
	for i := 0; i < d.Len(); i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		name, v := d.Field(i)
		fmt.Fprintf(&b, "%s: %s", name, v.String())
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
	if d.raw != "" {
		c := cursorOf(d.raw)
		r := record.NewCap(c.left)
		for name, _, ok := c.next(); ok; name, _, ok = c.next() {
			if v := c.value(); v.IsScalar() {
				r.Set(name, v.Scalar())
			}
		}
		return r
	}
	r := record.NewCap(len(d.fields))
	for _, f := range d.fields {
		if f.value.IsScalar() {
			r.Set(f.name, f.value.Scalar())
		}
	}
	return r
}
