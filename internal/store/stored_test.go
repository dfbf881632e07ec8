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
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/record"
)

// refValue is a document value as the reference reader reads it: a tree,
// a nested document's fields and a list's elements built out.
type refValue struct {
	tag    byte
	scalar record.Value
	fields []refField // a nested document's
	elems  []refValue // a list's
}

type refField struct {
	name  string
	value refValue
}

// refReader is the reference reader of the document grammar: a tree built
// over a bytes.Reader with binary.ReadUvarint, sharing no code with the
// walker. It accepts only what PutDoc writes, refusing a varint in a longer
// form than needed, a bool byte above 1 and a name repeated in one
// document.
type refReader struct{ rd *bytes.Reader }

// refDoc reads data as one document and nothing after it.
func refDoc(data []byte) ([]refField, error) {
	r := refReader{bytes.NewReader(data)}
	fields, err := r.doc()
	if err == nil && r.rd.Len() != 0 {
		err = fmt.Errorf("%d trailing bytes", r.rd.Len())
	}
	return fields, err
}

func (r refReader) uvarint() (uint64, error) {
	before := r.rd.Len()
	x, err := binary.ReadUvarint(r.rd)
	if err == nil && before-r.rd.Len() != len(binary.AppendUvarint(nil, x)) {
		err = errors.New("a varint in a longer form than needed")
	}
	return x, err
}

// size reads a count or a length, which the bytes left must cover.
func (r refReader) size() (int, error) {
	n, err := r.uvarint()
	if err == nil && n > uint64(r.rd.Len()) {
		err = fmt.Errorf("size %d exceeds the %d bytes left", n, r.rd.Len())
	}
	return int(n), err
}

func (r refReader) str() (string, error) {
	n, err := r.size()
	if err != nil {
		return "", err
	}
	b := make([]byte, n)
	_, err = io.ReadFull(r.rd, b)
	return string(b), err
}

func (r refReader) doc() ([]refField, error) {
	n, err := r.size()
	if err != nil {
		return nil, err
	}
	var fields []refField
	for range n {
		name, err := r.str()
		if err != nil {
			return nil, err
		}
		for _, f := range fields {
			if f.name == name {
				return nil, fmt.Errorf("field %q repeated", name)
			}
		}
		v, err := r.value()
		if err != nil {
			return nil, err
		}
		fields = append(fields, refField{name, v})
	}
	return fields, nil
}

func (r refReader) value() (refValue, error) {
	tag, err := r.rd.ReadByte()
	if err != nil {
		return refValue{}, err
	}
	v := refValue{tag: tag}
	switch tag {
	case 0:
		v.scalar, err = r.scalar()
	case 1:
		v.fields, err = r.doc()
	case 2:
		var n int
		n, err = r.size()
		for ; err == nil && n > 0; n-- {
			var e refValue
			if e, err = r.value(); err == nil {
				v.elems = append(v.elems, e)
			}
		}
	default:
		err = fmt.Errorf("tag %d", tag)
	}
	return v, err
}

func (r refReader) scalar() (record.Value, error) {
	kind, err := r.rd.ReadByte()
	if err != nil {
		return record.Null, err
	}
	switch kind {
	case 0:
		return record.Null, nil
	case 1:
		s, err := r.str()
		return record.String(s), err
	case 2, 3, 5:
		var b [8]byte
		if _, err := io.ReadFull(r.rd, b[:]); err != nil {
			return record.Null, err
		}
		x := binary.LittleEndian.Uint64(b[:])
		switch kind {
		case 2:
			return record.Int(int64(x)), nil
		case 3:
			return record.Float(math.Float64frombits(x)), nil
		}
		return record.Time(time.Unix(0, int64(x)).UTC()), nil
	case 4:
		b, err := r.rd.ReadByte()
		if err == nil && b > 1 {
			err = fmt.Errorf("bool byte %d", b)
		}
		return record.Bool(b == 1), err
	}
	return record.Null, fmt.Errorf("kind %d", kind)
}

// refSize is the size the store estimates for the fields named in names,
// every field when names is empty: 16 bytes of header, and per field its
// name, 2 bytes and its value's size — a scalar 16 bytes and its rendering,
// a list 8 bytes and its elements'.
func refSize(fields []refField, names []string) int64 {
	var n int64 = 16
	for _, f := range fields {
		if len(names) == 0 || slices.Contains(names, f.name) {
			n += int64(len(f.name)) + 2 + f.value.size()
		}
	}
	return n
}

func (v refValue) size() int64 {
	switch v.tag {
	case 0:
		return 16 + int64(len(v.scalar.Str()))
	case 1:
		return refSize(v.fields, nil)
	}
	var n int64 = 8
	for _, e := range v.elems {
		n += e.size()
	}
	return n
}

// String renders v as DocValue.String renders what it encodes.
func (v refValue) String() string {
	var parts []string
	switch v.tag {
	case 0:
		return v.scalar.String()
	case 1:
		for _, f := range v.fields {
			parts = append(parts, f.name+": "+f.value.String())
		}
		return "{" + strings.Join(parts, ", ") + "}"
	}
	for _, e := range v.elems {
		parts = append(parts, e.String())
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// path resolves a dotted path in fields as Doc.Path does: each part the
// field of that name, every part but the last a nested document.
func refPath(fields []refField, path string) (refValue, bool) {
	for {
		part, rest, nested := strings.Cut(path, ".")
		i := slices.IndexFunc(fields, func(f refField) bool { return f.name == part })
		switch {
		case i < 0:
			return refValue{}, false
		case !nested:
			return fields[i].value, true
		case fields[i].value.tag != 1:
			return refValue{}, false
		}
		fields, path = fields[i].value.fields, rest
	}
}

// storedSeeds are document bytes the stored-form fuzz starts from: every
// value kind, torn and trailing variants, and bytes PutDoc never writes,
// which adoption refuses — a repeated field name, a count in a longer form
// than needed, a bool byte of 2.
func storedSeeds() [][]byte {
	golden := EncodeDoc(codecFixture())
	rich := EncodeDoc(richDoc())
	seeds := [][]byte{golden, rich, rich[:len(rich)/2], append(slices.Clone(rich), 0), EncodeDoc(NewDoc()),
		{2, 1, 'a', 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 1, 'a', 0, 4, 1}, // "a" twice
		{0x81, 0x00, 1, 'a', 0, 0},                                 // one field, its count in two bytes
		{1, 1, 'b', 0, 4, 2},                                       // a bool byte of 2
		{1, 1, 'n', 1, 2, 1, 'x', 0, 0, 1, 'x', 0, 1, 1, 'y'},      // a nested document repeating "x"
		{1, 1, 'l', 2, 2, 1, 1, 1, 'k', 0, 1, 1, 'v', 1, 0},        // a list of a document and an empty one
		{1, 1, 'z', 3}, // an unknown tag
	}
	for _, d := range listDocs() {
		seeds = append(seeds, EncodeDoc(d))
	}
	return append(seeds, wideDoc(20, "", 0), wideDoc(20, "f0", 1))
}

// wideDoc encodes a document of n string fields f0, f1, ..., the middle
// one holding a nested document of the same names; with repeat set, the
// last field of the outer document (at depth 0) or of the nested one (at
// depth 1) is named repeat instead. It writes the bytes piece by piece,
// because NewDoc does not repeat a name.
func wideDoc(n int, repeat string, depth int) []byte {
	var fields func(b []byte, level int) []byte
	fields = func(b []byte, level int) []byte {
		for i := 0; i < n; i++ {
			name := fmt.Sprint("f", i)
			if i == n-1 && level == depth && repeat != "" {
				name = repeat
			}
			if i == n/2 && level == 0 {
				b = fields(AppendDocField(b, name, n), 1)
			} else {
				b = AppendStrField(b, name, fmt.Sprint("v", i))
			}
		}
		return b
	}
	return fields(AppendDocHead(nil, n), 0)
}

// checkAdoptMatchesReference fails t unless adopting data fails exactly
// when the reference reader refuses it and, once adopted, the document
// reads the reference's tree through every accessor and encodes to data
// itself.
func checkAdoptMatchesReference(t *testing.T, data []byte) {
	want, werr := refDoc(data)
	d, err := AdoptDoc(data)
	if (err == nil) != (werr == nil) {
		t.Fatalf("%x: AdoptDoc says %v, the reference %v", data, err, werr)
	}
	if err != nil {
		return
	}
	if got := EncodeDoc(d); !bytes.Equal(got, data) {
		t.Fatalf("%x: adopted, it encodes to %x", data, got)
	}
	matchesRef(t, "", d, want)
}

// FuzzStoredDocMatchesDecoded: for any bytes, adopting them fails exactly
// when the reference reader refuses them; once adopted, every accessor of
// the document, at every depth, reads the tree the reference decodes, and
// the document's encoding is the input.
func FuzzStoredDocMatchesDecoded(f *testing.F) {
	for _, seed := range storedSeeds() {
		f.Add(seed)
	}
	f.Fuzz(checkAdoptMatchesReference)
}

// matchesRef fails t unless every accessor of d reads the reference's
// fields, at every depth: Len, Field, Path, PathString, SizeBytes,
// SizeBytesOf, ToRecord and String, and each nested document and list
// through DocValue.Doc and Elems.
func matchesRef(t *testing.T, at string, d *Doc, want []refField) {
	t.Helper()
	if d.Len() != len(want) {
		t.Fatalf("%s: Len %d, want %d", at, d.Len(), len(want))
	}
	if got, w := d.SizeBytes(), refSize(want, nil); got != w {
		t.Fatalf("%s: SizeBytes %d, want %d", at, got, w)
	}
	if got, w := d.String(), (refValue{tag: 1, fields: want}).String(); got != w {
		t.Fatalf("%s: String %s, want %s", at, got, w)
	}
	rec := record.New()
	names := []string{"", "absent"}
	for i, f := range want {
		name, v := d.Field(i)
		if name != f.name {
			t.Fatalf("%s: field %d is %q, want %q", at, i, name, f.name)
		}
		valueMatchesRef(t, at+"."+name, v, f.value)
		if got, w := d.SizeBytesOf([]string{name, "absent"}), refSize(want, []string{name}); got != w {
			t.Fatalf("%s: SizeBytesOf(%q) %d, want %d", at, name, got, w)
		}
		if f.value.tag == 0 {
			rec.Set(name, f.value.scalar)
		}
		names = append(names, name)
		for _, sub := range f.value.fields {
			names = append(names, name+"."+sub.name, name+"."+sub.name+".absent")
		}
	}
	if got, w := d.ToRecord().Fields(), rec.Fields(); !slices.Equal(got, w) {
		t.Fatalf("%s: ToRecord %v, want %v", at, got, w)
	}
	for _, path := range names {
		v, ok := d.Path(path)
		w, wok := refPath(want, path)
		if ok != wok {
			t.Fatalf("%s: Path(%q) found %v, want %v", at, path, ok, wok)
		}
		if ok {
			valueMatchesRef(t, at+" Path "+path, v, w)
		}
		ws := ""
		if wok && w.tag == 0 {
			ws = w.scalar.Str()
		}
		if got := d.PathString(path); got != ws {
			t.Fatalf("%s: PathString(%q) %q, want %q", at, path, got, ws)
		}
	}
}

// valueMatchesRef fails t unless v reads as the reference's value.
func valueMatchesRef(t *testing.T, at string, v DocValue, want refValue) {
	t.Helper()
	if v.IsScalar() != (want.tag == 0) || v.IsDoc() != (want.tag == 1) || v.IsList() != (want.tag == 2) {
		t.Fatalf("%s: %v is not the same kind of value as %v", at, v, want)
	}
	if got := v.Scalar(); got != want.scalar {
		t.Fatalf("%s: scalar %#v, want %#v", at, got, want.scalar)
	}
	if got, w := v.String(), want.String(); got != w {
		t.Fatalf("%s: String %s, want %s", at, got, w)
	}
	switch want.tag {
	case 1:
		matchesRef(t, at, v.Doc(), want.fields)
	case 2:
		it := v.Elems()
		for i, w := range want.elems {
			e, ok := it.Next()
			if !ok {
				t.Fatalf("%s: the iterator ends at %d of %d", at, i, len(want.elems))
			}
			valueMatchesRef(t, fmt.Sprintf("%s[%d]", at, i), e, w)
		}
		if _, ok := it.Next(); ok {
			t.Fatalf("%s: the iterator runs past %d", at, len(want.elems))
		}
	default:
		if v.Doc() != nil {
			t.Fatalf("%s: a %v gives a document", at, v)
		}
		if elemCount(v) != 0 {
			t.Fatalf("%s: a %v gives elements", at, v)
		}
	}
}

// TestAdoptDocsSharesOneCopy: documents adopted together alias one copy of
// the bytes, which the caller may then reuse, and are read as each alone.
func TestAdoptDocsSharesOneCopy(t *testing.T) {
	var buf []byte
	var ends []int
	docs := listDocs()
	for _, d := range docs {
		buf = append(buf, EncodeDoc(d)...)
		ends = append(ends, len(buf))
	}
	got, err := AdoptDocs(buf, ends)
	if err != nil {
		t.Fatal(err)
	}
	clear(buf)
	for i := range got {
		if got[i].raw != docs[i].raw {
			t.Errorf("doc %d adopted as %v, want %v", i, &got[i], docs[i])
		}
	}
	if _, err := AdoptDocs(buf[:ends[0]-1], ends[:1]); err == nil {
		t.Error("an end past the bytes was not refused")
	}
}

// TestWideDocIsAdoptedAsItIs: however many fields a document has, it is
// refused only for bytes PutDoc never writes. A wide one, whose nested
// document repeats its parent's names, keeps its bytes and shares its
// batch's copy; a repeat of the first name in the last field, at either
// depth, is refused by AdoptDoc, AdoptDocs and a DocList window alike.
func TestWideDocIsAdoptedAsItIs(t *testing.T) {
	narrow, wide := EncodeDoc(listDocs()[0]), wideDoc(20, "", 0)
	buf := slices.Concat(narrow, wide, narrow)
	ends := []int{len(narrow), len(narrow) + len(wide), len(buf)}
	docs, err := AdoptDocs(buf, ends)
	if err != nil {
		t.Fatal(err)
	}
	if docs[1].raw != string(wide) {
		t.Fatal("a wide document was not adopted as its bytes")
	}
	if unsafe.Pointer(unsafe.StringData(docs[1].raw)) != unsafe.Add(unsafe.Pointer(unsafe.StringData(docs[0].raw)), len(narrow)) {
		t.Error("a wide document does not share its batch's copy")
	}
	for depth := range 2 {
		data := wideDoc(20, "f0", depth)
		if _, err := AdoptDoc(data); !errors.Is(err, errNotCanonical) {
			t.Errorf("a name repeated at depth %d: AdoptDoc says %v", depth, err)
		}
		buf := slices.Concat(narrow, data)
		if _, err := AdoptDocs(buf, []int{len(narrow), len(buf)}); !errors.Is(err, errNotCanonical) {
			t.Errorf("a name repeated at depth %d: AdoptDocs says %v", depth, err)
		}
		var list bytes.Buffer
		PutUvarint(&list, 2)
		PutBytes(&list, data)
		PutBytes(&list, narrow)
		l, err := ReadDocList(list.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.AppendWindow(nil, 1, 2); !errors.Is(err, errNotCanonical) {
			t.Errorf("a name repeated at depth %d outside the window: AppendWindow says %v", depth, err)
		}
	}
}

// TestStoredReadsDuringInsert: stored documents are read through Query,
// their fields with them, while windows of them are inserted into the same
// indexed collections. Run it under -race.
func TestStoredReadsDuringInsert(t *testing.T) {
	const windows, perWindow = 20, 50
	s := NewSharded("dt.entity", "name", 3, 0)
	s.EnsureIndex("type_1", "type", HashIndex)
	s.EnsureIndex("price_1", "attributes.price", HashIndex)
	if err := s.EnsureIndexCtx(t.Context(), IndexSpec{Path: "text", Kind: TextIndex}); err != nil {
		t.Fatal(err)
	}
	window := func(w int) []*Doc {
		var buf []byte
		var ends []int
		for i := 0; i < perWindow; i++ {
			buf = AppendDocHead(buf, 4)
			buf = AppendStrField(buf, "type", []string{"Movie", "Person"}[i%2])
			buf = AppendStrField(buf, "name", fmt.Sprintf("Show %d-%d", w, i))
			buf = AppendStrField(buf, "text", fmt.Sprintf("Matilda plays at theatre %d", i))
			buf = AppendDocField(buf, "attributes", 1)
			buf = AppendStrField(buf, "price", fmt.Sprintf("$%d", i%5))
			ends = append(ends, len(buf))
		}
		docs, err := AdoptDocs(buf, ends)
		if err != nil {
			t.Error(err)
		}
		out := make([]*Doc, len(docs))
		for i := range docs {
			out[i] = &docs[i]
		}
		return out
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for w := 0; w < windows; w++ {
			if err := s.InsertManyCtx(t.Context(), window(w)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	filters := []Filter{EqStr("type", "Movie"), EqStr("attributes.price", "$3"), Contains("text", "matilda"), nil}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				res, err := s.QueryCtx(t.Context(), Query{Filter: filters[(r+k)%len(filters)], Limit: 20, GroupBy: "type"})
				if err != nil {
					t.Error(err)
					return
				}
				for _, d := range res.Docs {
					if d.PathString("text") == "" || d.PathString("attributes.price") == "" || d.Len() != 4 || d.SizeBytes() <= 0 {
						t.Errorf("document read as %v", d)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	if n, want := s.Stats().Count, int64(windows*perWindow); n != want {
		t.Fatalf("%d documents stored, want %d", n, want)
	}
}
