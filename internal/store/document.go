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
// every posting list and a snapshot therefore list documents in one order
// by construction, and an index only ever appends an id to a posting list.
// Every index keeps one posting list per key (a hash index in a Go map, a
// B-tree index in key order, the text index per token) and no other form
// of ids: the ids as varint gaps with the highest inline, so that a key of
// one id is that id alone, in 24 bytes. No read copies a list out: a query
// decodes the ids its window keeps, and candidates merged from several
// lists are written into a pooled scratch. A document being added is
// walked once for all of its collection's indexed paths, whatever their
// number. A document is found by id at its offset from the first id,
// searching back over as many places as ids are missing: a replay may jump
// ids, and an image an older build wrote may lack the ones it deleted.
//
// A document is its codec encoding, in one form (see Doc): NewDoc encodes
// the fields it is given once, and everything that already holds a
// document's bytes — the text writer's output (AdoptDocs), a snapshot, a WAL
// event, a pull image, a node's insert body and the router's window of a
// shard's reply — adopts them, checked once, instead of decoding them into
// fields. Bytes that are not what PutDoc writes are refused, so a document
// has one encoding and the collections, local, durable and clustered, hold
// what they are given. Index keys, the text index, filters, ranking,
// routing, Stats' sizes, snapshots and the wire all read a document where it
// lies: a string value it hands out aliases its bytes, so reading every
// field of one allocates nothing.
//
// Everything that reads by filter is one op, Query: a filter, an offset, a
// limit, and the exact match total. A Collection answers it with at most
// the window's documents — from an index's posting lists when one covers
// the filter's condition, else by testing every document without collecting
// the ones outside the window. An index key is a value's rendering, so
// where the index holds, or the condition asks for, a value that is not a
// string, each candidate is checked: the string "27" is not the number 27.
// Equal numbers may render apart (the integer 1000000, the float 1e+06), so
// over an index holding values other than strings a number asked for is
// looked up under the rendering of every number equal to it, or, where
// those cannot be listed, the filter is a scan.
// A Sharded router asks each shard for its first offset+limit matches and
// cuts the window from their concatenation. A remote shard's list reaches
// the router still encoded (Result.Encoded, a DocList), and the router
// goes over each list once: it adopts the documents that fall in the window
// and only checks the others, copying nothing for them, so a page over four
// shards copies a page, not four, yet a malformed document anywhere in a
// reply still fails the query. Limit 0 is the count, NoLimit the whole
// list, Explain the plan. Matching a document allocates nothing.
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
// off an index over the path, as long as that index holds no
// list-element keys (a list is no scalar value, yet its elements are
// indexed, so the lengths would over-count); otherwise it visits the
// matches under the read lock. Stats reads a data-size counter every
// mutation keeps.
package store

import (
	"encoding/binary"
	"fmt"
	"strings"

	"repro/internal/record"
)

// DocValue is a node in a semi-structured document tree: a scalar, a nested
// document, or a list of values. The zero DocValue is the null scalar. A
// nested document or a list is held as the bytes that encode it, after its
// tag, so a value is as small for one as for a scalar and reading one off a
// document copies nothing.
type DocValue struct {
	// scalar is the scalar, or, for a nested document or a list, its bytes
	// as a string: a document's, aliased, or what Nested or List encoded.
	scalar record.Value
	tag    byte // tagScalar, tagNested or tagList
}

// Scalar wraps a record.Value as a document value.
func Scalar(v record.Value) DocValue { return DocValue{scalar: v} }

// Str is shorthand for a string scalar.
func Str(s string) DocValue { return Scalar(record.String(s)) }

// Num is shorthand for an integer scalar.
func Num(i int64) DocValue { return Scalar(record.Int(i)) }

// emptyDoc is the encoding of the document with no fields.
const emptyDoc = "\x00"

// Nested wraps a sub-document; Nested(nil) is the empty document.
func Nested(d *Doc) DocValue {
	raw := emptyDoc
	if d != nil {
		raw = d.raw
	}
	return DocValue{scalar: record.String(raw), tag: tagNested}
}

// List wraps a list of values, encoding them here.
func List(vs ...DocValue) DocValue {
	var stack [256]byte
	b := binary.AppendUvarint(stack[:0], uint64(len(vs)))
	for _, v := range vs {
		b = appendDocValue(b, v)
	}
	return DocValue{scalar: record.String(string(b)), tag: tagList}
}

// IsScalar reports whether v is a scalar.
func (v DocValue) IsScalar() bool { return v.tag == tagScalar }

// IsDoc reports whether v is a nested document.
func (v DocValue) IsDoc() bool { return v.tag == tagNested }

// IsList reports whether v is a list.
func (v DocValue) IsList() bool { return v.tag == tagList }

// Scalar returns the scalar payload (Null for non-scalars).
func (v DocValue) Scalar() record.Value {
	if !v.IsScalar() {
		return record.Null
	}
	return v.scalar
}

// Doc returns the nested document payload, or nil. It allocates the Doc,
// which shares v's bytes.
func (v DocValue) Doc() *Doc {
	if !v.IsDoc() {
		return nil
	}
	return &Doc{raw: v.scalar.Str()}
}

// Elems iterates a list value's elements where they lie, building nothing.
type Elems struct {
	w    walker[string]
	left int // elements not yet read
}

// Elems returns the iterator over v's elements: none unless v is a list.
func (v DocValue) Elems() Elems {
	if !v.IsList() {
		return Elems{}
	}
	it := Elems{w: walker[string]{b: v.scalar.Str()}}
	n, _ := it.w.uvarint()
	it.left = int(n)
	return it
}

// Next returns the next element; ok is false after the last.
func (it *Elems) Next() (DocValue, bool) {
	if it.left == 0 {
		return DocValue{}, false
	}
	it.left--
	return storedValue(&it.w), true
}

// String renders the value compactly for debugging.
func (v DocValue) String() string {
	switch {
	case v.IsDoc():
		return v.Doc().String()
	case v.IsList():
		var parts []string
		it := v.Elems()
		for e, ok := it.Next(); ok; e, ok = it.Next() {
			parts = append(parts, e.String())
		}
		return "[" + strings.Join(parts, ", ") + "]"
	default:
		return v.scalar.String()
	}
}

// scalarSize estimates the on-disk footprint of a scalar, for extent
// accounting (see SizeBytes). The constants approximate a BSON-like
// encoding overhead.
func scalarSize(v record.Value) int64 {
	const scalarOverhead = 16
	if v.Kind() == record.KindString {
		return scalarOverhead + int64(len(v.Str()))
	}
	var buf [64]byte // a rendering of any other kind fits
	return scalarOverhead + int64(len(v.AppendStr(buf[:0])))
}

// Doc is an ordered semi-structured document: immutable codec bytes, what
// PutDoc writes for it, read in place. NewDoc encodes one; the store adopts
// the rest (AdoptDoc, AdoptDocs, and every reader of snapshots, WAL events
// and wire lists) after checking them once, so no accessor can fail on them
// later. Adopting refuses bytes PutDoc would not write — a field name
// repeated in one document, a count or length in a longer form than needed,
// a bool byte other than 0 or 1 — so a document has one encoding. Path,
// PathString, Len, Field, SizeBytes and SizeBytesOf allocate nothing, for a
// scalar or for a nested document or list (nested values are handed out as
// their bytes), and a string value aliases the document's bytes: it is a
// substring of an immutable string, so it cannot change, and holding it
// keeps the bytes alive. A time is encoded as its instant, so it reads back
// in UTC from the moment the document is built.
//
// Documents hold a handful of fields, so lookup is a scan of the fields and
// there is no index to build, copy or keep in step. The zero Doc is no
// document; NewDoc() is the empty one.
type Doc struct {
	raw string // the document's encoding
}

// Field is a named value, one field of a document NewDoc builds.
type Field struct {
	Name  string
	Value DocValue
}

// F is shorthand for Field{name, v}.
func F(name string, v DocValue) Field { return Field{Name: name, Value: v} }

// NewDoc returns the document of fields, in their order, encoded once. A
// name given twice panics, because the codec holds a name once.
func NewDoc(fields ...Field) *Doc {
	var stack [256]byte
	b := binary.AppendUvarint(stack[:0], uint64(len(fields)))
	for i := range fields {
		for j := range i {
			if fields[j].Name == fields[i].Name {
				panic("store: field " + fields[i].Name + " given twice")
			}
		}
		b = appendDocValue(appendString(b, fields[i].Name), fields[i].Value)
	}
	return &Doc{raw: string(b)}
}

// Len reports the number of top-level fields.
func (d *Doc) Len() int {
	if d == nil {
		return 0
	}
	return cursorOf(d.raw).left
}

// Field returns the name and value of the i-th top-level field, in
// order; 0 <= i < Len().
func (d *Doc) Field(i int) (string, DocValue) {
	c := cursorOf(d.raw)
	for ; i > 0; i-- {
		c.next()
		c.skip()
	}
	name, _, _ := c.next()
	return name, c.value()
}

// Path resolves a dotted path like "entity.name" into the document tree,
// returning the value and whether the full path exists. List elements are
// not addressable by path; a path ending at a list returns the list value.
// It goes down into a nested document where it lies, reading no more of it
// than it passes.
func (d *Doc) Path(path string) (DocValue, bool) {
	if d == nil {
		return DocValue{}, false
	}
	c := cursorOf(d.raw)
	for {
		part, rest, nested := strings.Cut(path, ".")
		for {
			name, _, ok := c.next()
			if !ok {
				return DocValue{}, false
			}
			if name == part {
				break
			}
			c.skip()
		}
		if !nested {
			return c.value(), true
		}
		if tag, _ := c.w.readByte(); tag != tagNested {
			return DocValue{}, false
		}
		n, _ := c.w.uvarint()
		c.left, path = int(n), rest
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
	return storedDocSize(&walker[string]{b: d.raw}, fields)
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

// ToRecord converts the document's scalar top-level fields into a flat
// record, skipping nested documents and lists.
func (d *Doc) ToRecord() *record.Record {
	c := cursorOf(d.raw)
	r := record.NewCap(c.left)
	for name, _, ok := c.next(); ok; name, _, ok = c.next() {
		if v := c.value(); v.IsScalar() {
			r.Set(name, v.Scalar())
		}
	}
	return r
}
