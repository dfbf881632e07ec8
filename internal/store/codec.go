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
// form a stored document keeps (see Doc). The format is length-prefixed
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

// EncodeDoc serializes a document.
func EncodeDoc(d *Doc) []byte {
	var buf bytes.Buffer
	PutDoc(&buf, d)
	return buf.Bytes()
}

// PutDoc appends the document's encoding to buf — EncodeDoc for a caller
// packing many documents into one buffer. A stored document's encoding is
// its bytes, copied as they are.
func PutDoc(buf *bytes.Buffer, d *Doc) {
	if d.raw != "" {
		buf.WriteString(d.raw)
		return
	}
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
// list is every field. A stored document's fields are copied as the byte
// ranges that encode them.
func PutDocFields(buf *bytes.Buffer, d *Doc, fields []string) {
	if len(fields) == 0 {
		PutDoc(buf, d)
		return
	}
	if d.raw != "" {
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
	case v.doc == storedDoc:
		buf.WriteByte(tagNested)
		buf.WriteString(v.scalar.Str())
	case v.list == storedList:
		buf.WriteByte(tagList)
		buf.WriteString(v.scalar.Str())
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

// DecodeDoc deserializes a document encoded by EncodeDoc into the built
// form, every string copied out of data.
func DecodeDoc(data []byte) (*Doc, error) {
	w := walker[[]byte]{b: data}
	d, err := w.doc(true)
	if err != nil {
		return nil, err
	}
	if w.left() != 0 {
		return nil, fmt.Errorf("store: %d trailing bytes after document", w.left())
	}
	return d, nil
}

// AdoptDoc returns the stored document data encodes. It refuses what
// DecodeDoc refuses, with the same errors, and keeps a copy of data, so
// data may be reused. Bytes that are not what PutDoc writes for the
// document they encode — a field name repeated in one document, a count or
// length in a longer form than needed, a bool byte other than 0 or 1 —
// are stored as PutDoc's encoding of what DecodeDoc builds from them.
func AdoptDoc(data []byte) (*Doc, error) {
	odd, err := checkDoc(data)
	if err != nil {
		return nil, err
	}
	return &Doc{raw: storedBytes(data, odd)}, nil
}

// AdoptDocs returns the stored documents data holds back to back, the i'th
// ending at ends[i], each checked as AdoptDoc checks it. The documents
// share one copy of data and are allocated together: a writer that encodes
// a batch of documents adopts them in two allocations.
func AdoptDocs(data []byte, ends []int) ([]Doc, error) {
	start, anyOdd := 0, false
	for i, end := range ends {
		if end < start || end > len(data) {
			return nil, fmt.Errorf("store: document %d ends at %d, outside [%d, %d]", i, end, start, len(data))
		}
		odd, err := checkDoc(data[start:end])
		if err != nil {
			return nil, fmt.Errorf("store: document %d: %w", i, err)
		}
		anyOdd = anyOdd || odd
		start = end
	}
	docs := make([]Doc, len(ends))
	all := string(data[:start])
	start = 0
	for i, end := range ends {
		// Only a writer other than PutDoc makes odd bytes, rare enough to
		// re-encode every document they come with.
		docs[i].raw = all[start:end]
		if anyOdd {
			docs[i].raw = storedBytes(data[start:end], true)
		}
		start = end
	}
	return docs, nil
}

// checkDoc checks that data is one document and nothing after it, and
// reports whether the bytes are odd: not what PutDoc writes for it.
func checkDoc(data []byte) (odd bool, err error) {
	w := walker[[]byte]{b: data, strict: true}
	if _, err := w.doc(false); err != nil {
		return false, err
	}
	if w.left() != 0 {
		return false, fmt.Errorf("store: %d trailing bytes after document", w.left())
	}
	return w.odd, nil
}

// storedBytes is the stored form of the checked document data: a copy of
// it, or, when it is odd, the encoding of what DecodeDoc builds from it.
func storedBytes(data []byte, odd bool) string {
	if !odd {
		return string(data)
	}
	d, _ := DecodeDoc(data)
	var buf bytes.Buffer
	PutDoc(&buf, d)
	return buf.String()
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
	lo, hi, odd := 0, 0, false
	for i := 0; i < l.n; i++ {
		if i == from {
			lo = w.i
		}
		size, err := w.uvarint()
		if err != nil || size > uint64(w.left()) {
			return nil, dterr.Newf(dterr.CodeInternal, "store: doc %d length", i)
		}
		end := w.i + int(size)
		in := from <= i && i < to
		w.strict, w.odd = in, false
		if _, err := w.doc(false); err != nil {
			return nil, dterr.Wrapf(dterr.CodeInternal, err, "store: doc %d", i)
		}
		if w.i != end {
			return nil, dterr.Newf(dterr.CodeInternal, "store: doc %d is not the %d bytes its length says", i, size)
		}
		if in {
			hi, odd = end, odd || w.odd
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
		if odd {
			docs[k].raw = storedBytes(l.data[lo+ws.i-int(size):lo+ws.i], true)
		}
		dst = append(dst, &docs[k])
	}
	return dst, nil
}

// bytestr is what document bytes come as: a []byte off disk or the wire,
// or the string a stored document holds.
type bytestr interface{ ~[]byte | ~string }

// walker is the one reader of the document grammar, over bytes off disk or
// the wire and over a stored document's string alike. It reads b from
// offset i. A string it builds is copied out of a []byte and aliases a
// string.
type walker[B bytestr] struct {
	b B
	i int
	// odd is set once the walk has met bytes that are not what PutDoc
	// writes for what they hold: a count or length in a longer form than
	// needed, a bool byte other than 0 or 1, or, when strict is set, a field
	// name repeated in one document.
	strict, odd bool
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

// doc reads one document off w. Without build it only checks the bytes a
// document would be read from, with the same errors, and returns nil: a
// well-formed document costs no allocation.
func (w *walker[B]) doc(build bool) (*Doc, error) {
	n, err := w.count()
	if err != nil {
		return nil, err
	}
	var d *Doc
	if build {
		// The count is not yet backed by fields read, so it sizes the
		// document only up to a bound.
		d = NewDocCap(min(n, 64))
	}
	first := w.i
	for i := 0; i < n; i++ {
		field := w.i
		at, size, err := w.name()
		if err != nil {
			return nil, err
		}
		if w.strict {
			w.noteName(first, field, at, size)
		}
		if !build {
			w.i += size
			if _, err := w.value(false); err != nil {
				return nil, w.fieldErr(at, size, err)
			}
			continue
		}
		name := w.str(size)
		v, err := w.value(true)
		if err != nil {
			return nil, w.fieldErr(at, size, err)
		}
		d.Set(name, v)
	}
	return d, nil
}

// noteName marks the walk odd when the name of size bytes at at repeats
// the name of a field before it in its document, whose fields run from
// first up to field, where the named one starts. It reads those fields
// again, bytes already checked, and compares each name, as DecodeDoc's Set
// compares a name with the fields set before it.
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
		_, _ = r.value(false)
	}
}

// value reads one document value off w, or with build unset only checks
// it and returns the zero value.
func (w *walker[B]) value(build bool) (DocValue, error) {
	tag, err := w.readByte()
	if err != nil {
		return DocValue{}, err
	}
	switch tag {
	case tagScalar:
		v, err := w.scalar(build)
		return Scalar(v), err
	case tagNested:
		d, err := w.doc(build)
		if err != nil || !build {
			return DocValue{}, err
		}
		return Nested(d), nil
	case tagList:
		return w.list(build)
	default:
		return DocValue{}, fmt.Errorf("unknown docvalue tag %d", tag)
	}
}

// list reads a list value after its tag.
func (w *walker[B]) list(build bool) (DocValue, error) {
	n, err := w.uvarint()
	if err != nil {
		return DocValue{}, err
	}
	if n > uint64(w.left()) {
		return DocValue{}, fmt.Errorf("list length %d exceeds remaining bytes", n)
	}
	var list []DocValue
	if build {
		list = make([]DocValue, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		e, err := w.value(build)
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
}

// scalar reads one scalar off w, or with build unset only checks it and
// returns Null.
func (w *walker[B]) scalar(build bool) (record.Value, error) {
	kind, err := w.readByte()
	if err != nil {
		return record.Null, err
	}
	switch kind {
	case kindNull:
		return record.Null, nil
	case kindString:
		n, err := w.length()
		if err != nil || !build {
			w.i += n
			return record.Null, err
		}
		return record.String(w.str(n)), nil
	case kindInt, kindFloat, kindTime:
		b, err := w.get8()
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
		bv, err := w.readByte()
		if err != nil {
			return record.Null, err
		}
		if bv > 1 {
			w.odd = true
		}
		if !build {
			return record.Null, nil
		}
		return record.Bool(bv != 0), nil
	default:
		return record.Null, fmt.Errorf("unknown scalar kind %d", kind)
	}
}

// storedValue reads the value at w, in bytes a stored document holds, as
// the document's accessors hand it out: a scalar decoded, a string
// aliasing the bytes, and a nested document or a list as the bytes that
// encode it (see storedDoc). The bytes were checked when they were
// adopted.
func storedValue(w *walker[string]) DocValue {
	tag, _ := w.readByte()
	at := w.i
	switch tag {
	case tagScalar:
		v, _ := w.scalar(true)
		return Scalar(v)
	case tagNested:
		_, _ = w.doc(false)
		return DocValue{scalar: record.String(w.b[at:w.i]), doc: storedDoc}
	default:
		_, _ = w.list(false)
		return DocValue{scalar: record.String(w.b[at:w.i]), list: storedList}
	}
}

// cursor walks the fields of a stored document's bytes in order.
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
func (c *cursor) skip() { _, _ = c.w.value(false) }

// storedPath is Path on a stored document's bytes: it goes down into a
// nested document where it lies, reading no more of it than it passes.
func storedPath(raw, path string) (DocValue, bool) {
	c := cursorOf(raw)
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

// storedSize is DocValue.sizeBytes of the value, in a stored document's
// bytes, whose tag is tag and whose payload is next in w.
func storedSize(w *walker[string], tag byte) int64 {
	switch tag {
	case tagScalar:
		v, _ := w.scalar(true)
		return Scalar(v).sizeBytes()
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

// storedDocSize is SizeBytesOf(fields) of the document, in a stored
// document's bytes, next in w.
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
			_, _ = w.value(false)
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
