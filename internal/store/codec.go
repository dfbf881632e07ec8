package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"time"

	"repro/dterr"
	"repro/internal/record"
)

// Binary document codec: a compact, self-describing encoding used by the
// persistence layer (snapshots and journals) and the cluster wire. The
// format is length-prefixed throughout so readers can skip or validate
// frames.
//
//	value  := kind(1) payload
//	doc    := uvarint(nfields) { uvarint(len) name docvalue }*
//	docval := tag(1) payload   (tag: 0 scalar, 1 nested doc, 2 list)

const (
	tagScalar byte = 0
	tagNested byte = 1
	tagList   byte = 2
)

const (
	kindNull   byte = 0
	kindString byte = 1
	kindInt    byte = 2
	kindFloat  byte = 3
	kindBool   byte = 4
	kindTime   byte = 5
)

// EncodeDoc serializes a document.
func EncodeDoc(d *Doc) []byte {
	var buf bytes.Buffer
	PutDoc(&buf, d)
	return buf.Bytes()
}

// PutDoc appends the document's encoding to buf — EncodeDoc for a caller
// packing many documents into one buffer.
func PutDoc(buf *bytes.Buffer, d *Doc) {
	PutUvarint(buf, uint64(len(d.fields)))
	for _, f := range d.fields {
		PutString(buf, f.name)
		writeDocValue(buf, f.value)
	}
}

// PutRecord appends what PutDoc writes for FromRecord(r), without building
// the document.
func PutRecord(buf *bytes.Buffer, r *record.Record) {
	PutUvarint(buf, uint64(r.Len()))
	for _, f := range r.Fields() {
		PutString(buf, f.Name)
		buf.WriteByte(tagScalar)
		writeScalar(buf, f.Value)
	}
}

// PutDocFields appends the encoding of d cut down to the top-level fields
// named in fields, in d's order — what PutDoc writes for the projected
// document, without building it. Listed fields d lacks are skipped; an empty
// list is every field.
func PutDocFields(buf *bytes.Buffer, d *Doc, fields []string) {
	if len(fields) == 0 {
		PutDoc(buf, d)
		return
	}
	n := 0
	for _, f := range d.fields {
		if slices.Contains(fields, f.name) {
			n++
		}
	}
	PutUvarint(buf, uint64(n))
	for _, f := range d.fields {
		if slices.Contains(fields, f.name) {
			PutString(buf, f.name)
			writeDocValue(buf, f.value)
		}
	}
}

func writeDocValue(buf *bytes.Buffer, v DocValue) {
	switch {
	case v.IsDoc():
		buf.WriteByte(tagNested)
		PutDoc(buf, v.Doc())
	case v.IsList():
		buf.WriteByte(tagList)
		PutUvarint(buf, uint64(len(v.List())))
		for _, e := range v.List() {
			writeDocValue(buf, e)
		}
	default:
		buf.WriteByte(tagScalar)
		writeScalar(buf, v.Scalar())
	}
}

func writeScalar(buf *bytes.Buffer, v record.Value) {
	switch v.Kind() {
	case record.KindNull:
		buf.WriteByte(kindNull)
	case record.KindString:
		buf.WriteByte(kindString)
		PutString(buf, v.Str())
	case record.KindInt:
		buf.WriteByte(kindInt)
		i, _ := v.AsInt()
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(i))
		buf.Write(b[:])
	case record.KindFloat:
		buf.WriteByte(kindFloat)
		f, _ := v.AsFloat()
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		buf.Write(b[:])
	case record.KindBool:
		buf.WriteByte(kindBool)
		bv, _ := v.AsBool()
		if bv {
			buf.WriteByte(1)
		} else {
			buf.WriteByte(0)
		}
	case record.KindTime:
		buf.WriteByte(kindTime)
		t, _ := v.AsTime()
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(t.UnixNano()))
		buf.Write(b[:])
	}
}

// PutUvarint, PutString, PutBytes, GetString and GetBytes are the one
// uvarint-length-prefixed payload encoding shared by the document codec,
// the live WAL events and the cluster wire protocol.
func PutUvarint(buf *bytes.Buffer, x uint64) {
	var tmp [binary.MaxVarintLen64]byte
	buf.Write(tmp[:binary.PutUvarint(tmp[:], x)])
}

func PutString(buf *bytes.Buffer, s string) {
	PutUvarint(buf, uint64(len(s)))
	buf.WriteString(s)
}

func PutBytes(buf *bytes.Buffer, p []byte) {
	PutUvarint(buf, uint64(len(p)))
	buf.Write(p)
}

// DecodeDoc deserializes a document encoded by EncodeDoc.
func DecodeDoc(data []byte) (*Doc, error) {
	r := bytes.NewReader(data)
	d, err := walkDoc(r, nil, true)
	if err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("store: %d trailing bytes after document", r.Len())
	}
	return d, nil
}

// DocList is a document list as the cluster wire carries it — a count,
// then each document length-prefixed — not yet decoded: a shard's reply
// kept as it arrived, or an insert body. The bytes are aliased, not copied.
type DocList struct {
	data []byte // the documents, after the count
	n    int
}

// ReadDocList reads the count of the document list data holds, checking it
// against the bytes left. The documents are read, and checked, by
// AppendWindow.
func ReadDocList(data []byte) (*DocList, error) {
	r := bytes.NewReader(data)
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, dterr.Wrapf(dterr.CodeInternal, err, "store: doc list count")
	}
	if n > uint64(r.Len()) {
		return nil, dterr.Newf(dterr.CodeInternal, "store: doc list count %d exceeds remaining bytes", n)
	}
	return &DocList{data: data[offset(r):], n: int(n)}, nil
}

// Len is how many documents the list says it holds.
func (l *DocList) Len() int { return l.n }

// AppendWindow appends the list's documents [from, to) to dst, 0 <= from <=
// to <= Len(), in one pass over the whole list: it builds the window's
// documents and only checks the others, building nothing for them. The
// list fails whole, as an internal error, when any of its documents is
// malformed or not the bytes its length says, or when bytes follow the
// last one.
func (l *DocList) AppendWindow(dst []*Doc, from, to int) ([]*Doc, error) {
	r := bytes.NewReader(l.data)
	var prev *Doc
	for i := 0; i < l.n; i++ {
		size, err := binary.ReadUvarint(r)
		if err != nil || size > uint64(r.Len()) {
			return nil, dterr.Newf(dterr.CodeInternal, "store: doc %d length", i)
		}
		end := r.Len() - int(size)
		build := from <= i && i < to
		d, err := walkDoc(r, prev, build)
		if err != nil {
			return nil, dterr.Wrapf(dterr.CodeInternal, err, "store: doc %d", i)
		}
		if r.Len() != end {
			return nil, dterr.Newf(dterr.CodeInternal, "store: doc %d is not the %d bytes its length says", i, size)
		}
		if build {
			dst = append(dst, d)
			prev = d
		}
	}
	if r.Len() != 0 {
		return nil, dterr.Newf(dterr.CodeInternal, "store: %d bytes after the doc list", r.Len())
	}
	return dst, nil
}

// walkDoc is the one reader of the document grammar. With build set it
// reads one document off r; the documents of a list tend to repeat their
// field names, so a field named as like's field at the same position shares
// that name's string (like may be nil). Without build it only checks the
// bytes a document would be read from, with the same errors, and returns
// nil: a well-formed document costs no allocation.
func walkDoc(r *bytes.Reader, like *Doc, build bool) (*Doc, error) {
	var d *Doc
	err := walkFields(r, func(i, n, size int) error {
		if !build {
			skip(r, size)
			_, err := walkValue(r, false)
			return err
		}
		if i == 0 {
			// The count is not yet backed by fields read, so it sizes the
			// document only up to a bound.
			d = NewDocCap(min(n, 64))
		}
		hint := ""
		if like != nil && i < len(like.fields) {
			hint = like.fields[i].name
		}
		name := getName(r, size, hint)
		v, err := walkValue(r, true)
		if err != nil {
			return err
		}
		d.Set(name, v)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if build && d == nil {
		d = NewDocCap(0)
	}
	return d, nil
}

// walkFields reads a document's field count off r and, for each field, the
// length of its name, checking both against the bytes left, and hands the
// field to read: its index, the count, and the size of the name, which read
// consumes with the value after it. It reports what goes wrong as the
// document reader does.
func walkFields(r *bytes.Reader, read func(i, n, size int) error) error {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return fmt.Errorf("store: reading field count: %w", err)
	}
	if n > uint64(r.Len()) {
		return fmt.Errorf("store: field count %d exceeds remaining bytes", n)
	}
	for i := 0; i < int(n); i++ {
		size, err := getLen(r)
		if err != nil {
			return fmt.Errorf("store: reading field name: %w", err)
		}
		at := offset(r)
		if err := read(i, int(n), size); err != nil {
			return fmt.Errorf("store: reading field %q: %w", stringAt(r, at, size), err)
		}
	}
	return nil
}

// walkValue reads one document value off r, or with build unset only
// checks it and returns the zero value.
func walkValue(r *bytes.Reader, build bool) (DocValue, error) {
	tag, err := r.ReadByte()
	if err != nil {
		return DocValue{}, err
	}
	switch tag {
	case tagScalar:
		v, err := walkScalar(r, build)
		return Scalar(v), err
	case tagNested:
		d, err := walkDoc(r, nil, build)
		if err != nil || !build {
			return DocValue{}, err
		}
		return Nested(d), nil
	case tagList:
		n, err := binary.ReadUvarint(r)
		if err != nil {
			return DocValue{}, err
		}
		if n > uint64(r.Len()) {
			return DocValue{}, fmt.Errorf("list length %d exceeds remaining bytes", n)
		}
		var list []DocValue
		if build {
			list = make([]DocValue, 0, n)
		}
		for i := uint64(0); i < n; i++ {
			e, err := walkValue(r, build)
			if err != nil {
				return DocValue{}, err
			}
			if build {
				list = append(list, e)
			}
		}
		if !build {
			return DocValue{}, nil
		}
		return List(list...), nil
	default:
		return DocValue{}, fmt.Errorf("unknown docvalue tag %d", tag)
	}
}

// walkScalar reads one scalar off r, or with build unset only checks it and
// returns Null.
func walkScalar(r *bytes.Reader, build bool) (record.Value, error) {
	kind, err := r.ReadByte()
	if err != nil {
		return record.Null, err
	}
	switch kind {
	case kindNull:
		return record.Null, nil
	case kindString:
		n, err := getLen(r)
		if err != nil || !build {
			skip(r, n)
			return record.Null, err
		}
		return record.String(readString(r, n)), nil
	case kindInt, kindFloat, kindTime:
		b, err := get8(r)
		if err != nil || !build {
			return record.Null, err
		}
		switch kind {
		case kindInt:
			return record.Int(int64(b)), nil
		case kindFloat:
			return record.Float(math.Float64frombits(b)), nil
		}
		return record.Time(time.Unix(0, int64(b)).UTC()), nil
	case kindBool:
		bv, err := r.ReadByte()
		if err != nil || !build {
			return record.Null, err
		}
		return record.Bool(bv != 0), nil
	default:
		return record.Null, fmt.Errorf("unknown scalar kind %d", kind)
	}
}

// get8 reads the next eight bytes as a little-endian word, failing as
// io.ReadFull fails when fewer remain.
func get8(r *bytes.Reader) (uint64, error) {
	switch n := r.Len(); {
	case n == 0:
		return 0, io.EOF
	case n < 8:
		skip(r, n)
		return 0, io.ErrUnexpectedEOF
	}
	var b [8]byte
	_, _ = r.Read(b[:])
	return binary.LittleEndian.Uint64(b[:]), nil
}

// getLen reads a value's length prefix and checks it against the bytes
// remaining, before anything is allocated for the value.
func getLen(r *bytes.Reader) (int, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, err
	}
	if n > uint64(r.Len()) {
		return 0, fmt.Errorf("length %d exceeds remaining bytes", n)
	}
	return int(n), nil
}

// GetString reads one length-prefixed string, copying it once: through a
// small buffer into the string's own storage.
func GetString(r *bytes.Reader) (string, error) {
	n, err := getLen(r)
	if err != nil {
		return "", err
	}
	return readString(r, n), nil
}

// readString reads the next n bytes, which r is known to hold.
func readString(r *bytes.Reader, n int) string {
	var sb strings.Builder
	sb.Grow(n)
	var chunk [256]byte
	for n > 0 {
		k, _ := r.Read(chunk[:min(n, len(chunk))])
		sb.Write(chunk[:k])
		n -= k
	}
	return sb.String()
}

// getName reads a field name of the n bytes next in r, which r is known to
// hold. A name equal to hint is returned as hint, copying nothing.
func getName(r *bytes.Reader, n int, hint string) string {
	if n == len(hint) && n > 0 && pick(r, n, hint) == 0 {
		return hint
	}
	return readString(r, n)
}

// pick reports which of known the n bytes next in r spell, -1 for none, and
// consumes them when one does, copying nothing. r is known to hold n bytes.
func pick(r *bytes.Reader, n int, known ...string) int {
	var peek [64]byte
	if n > len(peek) {
		return -1
	}
	_, _ = r.ReadAt(peek[:n], offset(r))
	for i, k := range known {
		if string(peek[:n]) == k {
			skip(r, n)
			return i
		}
	}
	return -1
}

// offset is how far into its bytes r has read.
func offset(r *bytes.Reader) int64 { return r.Size() - int64(r.Len()) }

// skip passes over the n bytes next in r, which r is known to hold.
func skip(r *bytes.Reader, n int) { _, _ = r.Seek(int64(n), io.SeekCurrent) }

// stringAt copies the n bytes at offset at of r's bytes, which hold them,
// for an error message.
func stringAt(r *bytes.Reader, at int64, n int) string {
	b := make([]byte, n)
	_, _ = r.ReadAt(b, at)
	return string(b)
}

// GetBytes reads one length-prefixed value; a zero length is a valid empty
// value even at the end of the payload.
func GetBytes(r *bytes.Reader) ([]byte, error) {
	n, err := getLen(r)
	if err != nil {
		return nil, err
	}
	b := make([]byte, n)
	_, err = io.ReadFull(r, b)
	return b, err
}
