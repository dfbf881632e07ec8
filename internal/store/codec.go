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

	"repro/internal/record"
)

// Binary document codec: a compact, self-describing encoding used by the
// persistence layer (snapshots and journals). The format is
// length-prefixed throughout so readers can skip or validate frames.
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
	d, err := GetDoc(r, nil)
	if err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("store: %d trailing bytes after document", r.Len())
	}
	return d, nil
}

// GetDoc reads one document off r — DecodeDoc for a caller unpacking many
// documents from one buffer through one reader. The documents of a list
// tend to repeat their field names, so a field named as like's field at the
// same position shares that name's string; like may be nil.
func GetDoc(r *bytes.Reader, like *Doc) (*Doc, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("store: reading field count: %w", err)
	}
	if n > uint64(r.Len()) {
		return nil, fmt.Errorf("store: field count %d exceeds remaining bytes", n)
	}
	// The count is not yet backed by fields read, so it sizes the document
	// only up to a bound.
	d := NewDocCap(min(int(n), 64))
	for i := uint64(0); i < n; i++ {
		hint := ""
		if like != nil && i < uint64(len(like.fields)) {
			hint = like.fields[i].name
		}
		name, err := getName(r, hint)
		if err != nil {
			return nil, fmt.Errorf("store: reading field name: %w", err)
		}
		v, err := readDocValue(r)
		if err != nil {
			return nil, fmt.Errorf("store: reading field %q: %w", name, err)
		}
		d.Set(name, v)
	}
	return d, nil
}

func readDocValue(r *bytes.Reader) (DocValue, error) {
	tag, err := r.ReadByte()
	if err != nil {
		return DocValue{}, err
	}
	switch tag {
	case tagScalar:
		v, err := readScalar(r)
		if err != nil {
			return DocValue{}, err
		}
		return Scalar(v), nil
	case tagNested:
		d, err := GetDoc(r, nil)
		if err != nil {
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
		list := make([]DocValue, 0, n)
		for i := uint64(0); i < n; i++ {
			e, err := readDocValue(r)
			if err != nil {
				return DocValue{}, err
			}
			list = append(list, e)
		}
		return List(list...), nil
	default:
		return DocValue{}, fmt.Errorf("unknown docvalue tag %d", tag)
	}
}

func readScalar(r *bytes.Reader) (record.Value, error) {
	kind, err := r.ReadByte()
	if err != nil {
		return record.Null, err
	}
	switch kind {
	case kindNull:
		return record.Null, nil
	case kindString:
		s, err := GetString(r)
		if err != nil {
			return record.Null, err
		}
		return record.String(s), nil
	case kindInt:
		var b [8]byte
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return record.Null, err
		}
		return record.Int(int64(binary.LittleEndian.Uint64(b[:]))), nil
	case kindFloat:
		var b [8]byte
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return record.Null, err
		}
		return record.Float(math.Float64frombits(binary.LittleEndian.Uint64(b[:]))), nil
	case kindBool:
		bv, err := r.ReadByte()
		if err != nil {
			return record.Null, err
		}
		return record.Bool(bv != 0), nil
	case kindTime:
		var b [8]byte
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return record.Null, err
		}
		return record.Time(time.Unix(0, int64(binary.LittleEndian.Uint64(b[:]))).UTC()), nil
	default:
		return record.Null, fmt.Errorf("unknown scalar kind %d", kind)
	}
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

// getName is GetString for a field name expected to equal hint: when it
// does, hint is returned and nothing is copied.
func getName(r *bytes.Reader, hint string) (string, error) {
	n, err := getLen(r)
	if err != nil {
		return "", err
	}
	var peek [64]byte
	if n == len(hint) && 0 < n && n <= len(peek) {
		_, _ = r.ReadAt(peek[:n], r.Size()-int64(r.Len())) // getLen saw n bytes remain
		if string(peek[:n]) == hint {
			_, _ = r.Seek(int64(n), io.SeekCurrent)
			return hint, nil
		}
	}
	return readString(r, n), nil
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
