package store

import (
	"bytes"
	"encoding/binary"
	"errors"
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
// persistence layer (snapshots and journals) and the cluster wire, and the
// one form a document keeps (see Doc). The format is length-prefixed
// throughout so readers can skip or validate frames.
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

// EncodeDoc returns a copy of the document's encoding.
func EncodeDoc(d *Doc) []byte { return []byte(d.raw) }

// PutDoc appends the document's encoding to buf — EncodeDoc for a caller
// packing many documents into one buffer.
func PutDoc(buf *bytes.Buffer, d *Doc) { buf.WriteString(d.raw) }

// PutRecord appends what PutDoc writes for the one-level document of r's
// fields, without building the document.
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
// document, without building it: the fields are copied as the byte ranges
// that encode them. Listed fields d lacks are skipped; an empty list is
// every field.
func PutDocFields(buf *bytes.Buffer, d *Doc, fields []string) {
	if len(fields) == 0 {
		PutDoc(buf, d)
		return
	}
	n := 0
	for c := cursorOf(d.raw); ; c.skip() {
		name, _, ok := c.next()
		if !ok {
			break
		}
		if slices.Contains(fields, name) {
			n++
		}
	}
	PutUvarint(buf, uint64(n))
	for c := cursorOf(d.raw); ; {
		name, at, ok := c.next()
		if !ok {
			return
		}
		c.skip()
		if slices.Contains(fields, name) {
			buf.WriteString(d.raw[at:c.w.i])
		}
	}
}

// appendDocValue appends v's tag and payload: a scalar encoded, a nested
// document or a list as the bytes it holds.
func appendDocValue(dst []byte, v DocValue) []byte {
	dst = append(dst, v.tag)
	if v.IsScalar() {
		return appendScalar(dst, v.scalar)
	}
	return append(dst, v.scalar.Str()...)
}

// writeScalar appends v's kind and payload to buf.
func writeScalar(buf *bytes.Buffer, v record.Value) {
	if v.Kind() == record.KindString {
		buf.WriteByte(kindString)
		PutString(buf, v.Str())
		return
	}
	var tmp [9]byte
	buf.Write(appendScalar(tmp[:0], v))
}

func appendScalar(dst []byte, v record.Value) []byte {
	switch v.Kind() {
	case record.KindString:
		return appendString(append(dst, kindString), v.Str())
	case record.KindInt:
		i, _ := v.AsInt()
		return binary.LittleEndian.AppendUint64(append(dst, kindInt), uint64(i))
	case record.KindFloat:
		f, _ := v.AsFloat()
		return binary.LittleEndian.AppendUint64(append(dst, kindFloat), math.Float64bits(f))
	case record.KindBool:
		if b, _ := v.AsBool(); b {
			return append(dst, kindBool, 1)
		}
		return append(dst, kindBool, 0)
	case record.KindTime:
		t, _ := v.AsTime()
		return binary.LittleEndian.AppendUint64(append(dst, kindTime), uint64(t.UnixNano()))
	}
	return append(dst, kindNull)
}

// AppendDocHead, AppendStrField, AppendDocField, AppendListField and
// AppendDocElem append a document's encoding piece by piece, for a writer
// that holds no Doc: a document is its field count, then that many fields.
// AppendDocHead begins a document of n fields.
func AppendDocHead(dst []byte, n int) []byte { return binary.AppendUvarint(dst, uint64(n)) }

// AppendStrField appends the field name holding the string s.
func AppendStrField(dst []byte, name, s string) []byte {
	dst = appendString(dst, name)
	dst = append(dst, tagScalar, kindString)
	return appendString(dst, s)
}

// AppendDocField begins the field name holding a nested document of n
// fields; the n fields follow.
func AppendDocField(dst []byte, name string, n int) []byte {
	dst = append(appendString(dst, name), tagNested)
	return AppendDocHead(dst, n)
}

// AppendListField begins the field name holding a list of n values; the n
// values follow.
func AppendListField(dst []byte, name string, n int) []byte {
	dst = append(appendString(dst, name), tagList)
	return binary.AppendUvarint(dst, uint64(n))
}

// AppendDocElem begins a list value that is a nested document of n fields.
func AppendDocElem(dst []byte, n int) []byte {
	return AppendDocHead(append(dst, tagNested), n)
}

func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
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

// errNotCanonical refuses document bytes that are well formed but not what
// PutDoc writes for what they hold.
var errNotCanonical = errors.New("store: document bytes not as PutDoc writes them: a repeated field name, a varint in a longer form than needed or a bool byte above 1")

// AdoptDoc returns the document data encodes, keeping a copy of data, so
// data may be reused. It refuses bytes that are no document, that hold
// bytes after it, or that are not what PutDoc writes for it.
func AdoptDoc(data []byte) (*Doc, error) {
	if err := checkDoc(data); err != nil {
		return nil, err
	}
	return &Doc{raw: string(data)}, nil
}

// AdoptDocs returns the documents data holds back to back, the i'th ending
// at ends[i], each checked as AdoptDoc checks it. The documents share one
// copy of data and are allocated together: a writer that encodes a batch of
// documents adopts them in two allocations.
func AdoptDocs(data []byte, ends []int) ([]Doc, error) {
	start := 0
	for i, end := range ends {
		if end < start || end > len(data) {
			return nil, fmt.Errorf("store: document %d ends at %d, outside [%d, %d]", i, end, start, len(data))
		}
		if err := checkDoc(data[start:end]); err != nil {
			return nil, fmt.Errorf("store: document %d: %w", i, err)
		}
		start = end
	}
	docs := make([]Doc, len(ends))
	all := string(data[:start])
	start = 0
	for i, end := range ends {
		docs[i].raw = all[start:end]
		start = end
	}
	return docs, nil
}

// checkDoc checks that data is one document as PutDoc writes it and nothing
// after it.
func checkDoc(data []byte) error {
	w := walker[[]byte]{b: data}
	if err := w.doc(); err != nil {
		return err
	}
	if w.left() != 0 {
		return fmt.Errorf("store: %d trailing bytes after document", w.left())
	}
	if w.odd {
		return errNotCanonical
	}
	return nil
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
	w := walker[[]byte]{b: data}
	n, err := w.uvarint()
	if err != nil {
		return nil, dterr.Wrapf(dterr.CodeInternal, err, "store: doc list count")
	}
	if n > uint64(w.left()) {
		return nil, dterr.Newf(dterr.CodeInternal, "store: doc list count %d exceeds remaining bytes", n)
	}
	return &DocList{data: data[w.i:], n: int(n)}, nil
}

// Len is how many documents the list says it holds.
func (l *DocList) Len() int { return l.n }

// AppendWindow appends the list's documents [from, to) to dst, 0 <= from <=
// to <= Len(), in one pass over the whole list that checks every document:
// the window's are adopted, as AdoptDocs adopts them, in one copy of the
// bytes they span and one allocation of documents, and the others cost
// nothing. The list fails whole, as an internal error, when any of its
// documents is malformed or not the bytes its length says, or when bytes
// follow the last one.
func (l *DocList) AppendWindow(dst []*Doc, from, to int) ([]*Doc, error) {
	w := walker[[]byte]{b: l.data}
	lo, hi := 0, 0
	for i := 0; i < l.n; i++ {
		if i == from {
			lo = w.i
		}
		size, err := w.uvarint()
		if err != nil || size > uint64(w.left()) {
			return nil, dterr.Newf(dterr.CodeInternal, "store: doc %d length", i)
		}
		end := w.i + int(size)
		w.odd = false
		if err := w.doc(); err != nil {
			return nil, dterr.Wrapf(dterr.CodeInternal, err, "store: doc %d", i)
		}
		if w.i != end {
			return nil, dterr.Newf(dterr.CodeInternal, "store: doc %d is not the %d bytes its length says", i, size)
		}
		if w.odd {
			return nil, dterr.Wrapf(dterr.CodeInternal, errNotCanonical, "store: doc %d", i)
		}
		if i < to {
			hi = end
		}
	}
	if w.left() != 0 {
		return nil, dterr.Newf(dterr.CodeInternal, "store: %d bytes after the doc list", w.left())
	}
	if from >= to {
		return dst, nil
	}
	// The window's bytes, each document behind its length, copied once.
	all := string(l.data[lo:hi])
	docs := make([]Doc, to-from)
	dst = slices.Grow(dst, len(docs))
	ws := walker[string]{b: all}
	for k := range docs {
		size, _ := ws.uvarint()
		docs[k].raw = ws.str(int(size))
		dst = append(dst, &docs[k])
	}
	return dst, nil
}

// bytestr is what document bytes come as: a []byte off disk or the wire,
// or the string a document holds.
type bytestr interface{ ~[]byte | ~string }

// walker is the one reader of the document grammar, over bytes off disk or
// the wire and over a document's string alike. It reads b from offset i. A
// string it reads is copied out of a []byte and aliases a string. doc,
// value and list check bytes not yet checked; skip and the accessors read
// bytes that were.
type walker[B bytestr] struct {
	b B
	i int
	// odd is set once the walk has met bytes that are not what PutDoc
	// writes for what they hold: a count or length in a longer form than
	// needed, a bool byte other than 0 or 1, or a field name repeated in
	// one document.
	odd bool
}

var errOverflow = errors.New("binary: varint overflows a 64-bit integer")

func (w *walker[B]) left() int { return len(w.b) - w.i }

func (w *walker[B]) readByte() (byte, error) {
	if w.i >= len(w.b) {
		return 0, io.EOF
	}
	c := w.b[w.i]
	w.i++
	return c, nil
}

// uvarint reads a uvarint as binary.ReadUvarint does, with its errors.
func (w *walker[B]) uvarint() (uint64, error) {
	if w.i < len(w.b) && w.b[w.i] < 0x80 { // one byte: every count and most lengths
		w.i++
		return uint64(w.b[w.i-1]), nil
	}
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		c, err := w.readByte()
		if err != nil {
			if i > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return x, err
		}
		if c < 0x80 {
			if i == binary.MaxVarintLen64-1 && c > 1 {
				return x, errOverflow
			}
			if c == 0 && i > 0 {
				w.odd = true
			}
			return x | uint64(c)<<s, nil
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return x, errOverflow
}

// length reads a value's length prefix and checks it against the bytes
// remaining, before anything is allocated for the value.
func (w *walker[B]) length() (int, error) {
	n, err := w.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(w.left()) {
		return 0, fmt.Errorf("length %d exceeds remaining bytes", n)
	}
	return int(n), nil
}

// str reads the next n bytes, which w holds, as a string.
func (w *walker[B]) str(n int) string {
	s := string(w.b[w.i : w.i+n])
	w.i += n
	return s
}

// get8 reads the next eight bytes as a little-endian word, failing as
// io.ReadFull fails when fewer remain.
func (w *walker[B]) get8() (uint64, error) {
	switch n := w.left(); {
	case n == 0:
		return 0, io.EOF
	case n < 8:
		w.i += n
		return 0, io.ErrUnexpectedEOF
	}
	var x uint64
	for k := 7; k >= 0; k-- {
		x = x<<8 | uint64(w.b[w.i+k])
	}
	w.i += 8
	return x, nil
}

// count reads a document's field count, checking it against the bytes
// left.
func (w *walker[B]) count() (int, error) {
	n, err := w.uvarint()
	if err != nil {
		return 0, fmt.Errorf("store: reading field count: %w", err)
	}
	if n > uint64(w.left()) {
		return 0, fmt.Errorf("store: field count %d exceeds remaining bytes", n)
	}
	return int(n), nil
}

// name reads the length of a field's name, checking it against the bytes
// left, and returns where the name starts and its size; the name and the
// value after it are the caller's to read.
func (w *walker[B]) name() (at, size int, err error) {
	if size, err = w.length(); err != nil {
		return 0, 0, fmt.Errorf("store: reading field name: %w", err)
	}
	return w.i, size, nil
}

// fieldErr reports err, met reading the field whose name of size bytes
// starts at at, as the document reader does.
func (w *walker[B]) fieldErr(at, size int, err error) error {
	return fmt.Errorf("store: reading field %q: %w", string(w.b[at:at+size]), err)
}

// doc checks one document off w: it fails on bytes that are no document
// and marks the walk odd on a document PutDoc would not write. A
// well-formed document costs no allocation.
func (w *walker[B]) doc() error {
	n, err := w.count()
	if err != nil {
		return err
	}
	first := w.i
	for i := 0; i < n; i++ {
		field := w.i
		at, size, err := w.name()
		if err != nil {
			return err
		}
		w.noteName(first, field, at, size)
		w.i += size
		if err := w.value(); err != nil {
			return w.fieldErr(at, size, err)
		}
	}
	return nil
}

// noteName marks the walk odd when the name of size bytes at at repeats
// the name of a field before it in its document, whose fields run from
// first up to field, where the named one starts. It reads those fields
// again, bytes already checked, and compares each name.
func (w *walker[B]) noteName(first, field, at, size int) {
	name := w.b[at : at+size]
	r := walker[B]{b: w.b, i: first}
	for r.i < field {
		n, _ := r.uvarint()
		if int(n) == size && string(r.b[r.i:r.i+size]) == string(name) {
			w.odd = true
			return
		}
		r.i += int(n)
		r.skip()
	}
}

// value checks one document value off w.
func (w *walker[B]) value() error {
	tag, err := w.readByte()
	if err != nil {
		return err
	}
	switch tag {
	case tagScalar:
		_, err := w.scalar(false)
		return err
	case tagNested:
		return w.doc()
	case tagList:
		return w.list()
	default:
		return fmt.Errorf("unknown docvalue tag %d", tag)
	}
}

// list checks a list value after its tag.
func (w *walker[B]) list() error {
	n, err := w.uvarint()
	if err != nil {
		return err
	}
	if n > uint64(w.left()) {
		return fmt.Errorf("list length %d exceeds remaining bytes", n)
	}
	for i := uint64(0); i < n; i++ {
		if err := w.value(); err != nil {
			return err
		}
	}
	return nil
}

// skip passes over the value next in w, bytes already checked, reading no
// more of it than it must to find its end.
func (w *walker[B]) skip() {
	switch tag, _ := w.readByte(); tag {
	case tagScalar:
		_, _ = w.scalar(false)
	case tagNested:
		for n, _ := w.uvarint(); n > 0; n-- {
			k, _ := w.uvarint()
			w.i += int(k)
			w.skip()
		}
	default:
		for n, _ := w.uvarint(); n > 0; n-- {
			w.skip()
		}
	}
}

// scalar reads one scalar off w, or with decode unset only checks it and
// returns Null.
func (w *walker[B]) scalar(decode bool) (record.Value, error) {
	kind, err := w.readByte()
	if err != nil {
		return record.Null, err
	}
	switch kind {
	case kindNull:
		return record.Null, nil
	case kindString:
		n, err := w.length()
		if err != nil || !decode {
			w.i += n
			return record.Null, err
		}
		return record.String(w.str(n)), nil
	case kindInt, kindFloat, kindTime:
		b, err := w.get8()
		if err != nil || !decode {
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
		bv, err := w.readByte()
		if err != nil {
			return record.Null, err
		}
		if bv > 1 {
			w.odd = true
		}
		if !decode {
			return record.Null, nil
		}
		return record.Bool(bv != 0), nil
	default:
		return record.Null, fmt.Errorf("unknown scalar kind %d", kind)
	}
}

// storedValue reads the value at w, in a document's checked bytes, as the
// document's accessors hand it out: a scalar decoded, a string aliasing the
// bytes, and a nested document or a list as the bytes that encode it.
func storedValue(w *walker[string]) DocValue {
	at := w.i
	if w.b[at] == tagScalar {
		w.i++
		v, _ := w.scalar(true)
		return Scalar(v)
	}
	w.skip()
	return DocValue{scalar: record.String(w.b[at+1 : w.i]), tag: w.b[at]}
}

// cursor walks the fields of a document's bytes in order.
type cursor struct {
	w    walker[string]
	left int // fields not yet read
}

func cursorOf(raw string) cursor {
	c := cursor{w: walker[string]{b: raw}}
	n, _ := c.w.uvarint()
	c.left = int(n)
	return c
}

// next reads the next field's name, leaving c at its value, and where the
// field's encoding begins; ok is false after the last field.
func (c *cursor) next() (name string, at int, ok bool) {
	if c.left == 0 {
		return "", 0, false
	}
	c.left--
	at = c.w.i
	n, _ := c.w.length()
	return c.w.str(n), at, true
}

// value reads the value of the field next read.
func (c *cursor) value() DocValue { return storedValue(&c.w) }

// skip passes over the value of the field next read.
func (c *cursor) skip() { c.w.skip() }

// storedSize is the footprint SizeBytes estimates for the value, in a
// document's bytes, whose tag is tag and whose payload is next in w: a
// scalar's (scalarSize), a nested document's, or 8 bytes and a list's
// elements'.
func storedSize(w *walker[string], tag byte) int64 {
	switch tag {
	case tagScalar:
		v, _ := w.scalar(true)
		return scalarSize(v)
	case tagNested:
		return storedDocSize(w, nil)
	}
	n, _ := w.uvarint()
	var size int64 = 8
	for ; n > 0; n-- {
		t, _ := w.readByte()
		size += storedSize(w, t)
	}
	return size
}

// storedDocSize is SizeBytesOf(fields) of the document, in a document's
// bytes, next in w.
func storedDocSize(w *walker[string], fields []string) int64 {
	n, _ := w.uvarint()
	var size int64 = 16 // header
	for ; n > 0; n-- {
		k, _ := w.length()
		name := w.str(k)
		if len(fields) == 0 || slices.Contains(fields, name) {
			t, _ := w.readByte()
			size += int64(len(name)) + 2 + storedSize(w, t)
		} else {
			w.skip()
		}
	}
	return size
}

// GetString reads one length-prefixed string, copying it once: through a
// small buffer into the string's own storage.
func GetString(r *bytes.Reader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > uint64(r.Len()) {
		return "", fmt.Errorf("length %d exceeds remaining bytes", n)
	}
	return readString(r, int(n)), nil
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

// GetBytes reads one length-prefixed value; a zero length is a valid empty
// value even at the end of the payload.
func GetBytes(r *bytes.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Len()) {
		return nil, fmt.Errorf("length %d exceeds remaining bytes", n)
	}
	b := make([]byte, n)
	_, err = io.ReadFull(r, b)
	return b, err
}
