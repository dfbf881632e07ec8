package store

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
	"unsafe"
)

// storedSeeds are document bytes the stored-form fuzz starts from: every
// value kind, torn and trailing variants, and odd bytes DecodeDoc accepts
// but PutDoc never writes — a repeated field name, a count in a longer
// form than needed, a bool byte of 2.
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
	return append(seeds, EncodeDoc(wideDoc(20, "", 0)), EncodeDoc(wideDoc(20, "f0", 1)))
}

// wideDoc is a document of n string fields f0, f1, ..., the middle one
// holding a nested document of the same names; with repeat set, the last
// field of the outer document (at depth 0) or of the nested one (at depth
// 1) is named repeat instead. Its fields are laid out by hand, because Set
// would not repeat a name.
func wideDoc(n int, repeat string, depth int) *Doc {
	fields := func(nested *Doc, repeat string) *Doc {
		d := NewDoc()
		for i := 0; i < n; i++ {
			f := docField{name: fmt.Sprint("f", i), value: Str(fmt.Sprint("v", i))}
			if i == n-1 && repeat != "" {
				f.name = repeat
			}
			if i == n/2 && nested != nil {
				f.value = Nested(nested)
			}
			d.fields = append(d.fields, f)
		}
		return d
	}
	if depth == 1 {
		return fields(fields(nil, repeat), "")
	}
	return fields(fields(nil, ""), repeat)
}

// FuzzStoredDocMatchesDecoded: for any bytes, adopting them fails exactly
// when DecodeDoc does, with its error; once adopted, every accessor of the
// stored document reads what the same accessor reads on the decoded,
// built one, and the stored document re-encodes to the built one's
// encoding — to the input bytes themselves unless they are odd (see
// AdoptDoc).
func FuzzStoredDocMatchesDecoded(f *testing.F) {
	for _, seed := range storedSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		built, berr := DecodeDoc(data)
		stored, serr := AdoptDoc(data)
		if fmt.Sprint(berr) != fmt.Sprint(serr) {
			t.Fatalf("%x: DecodeDoc says %v, AdoptDoc %v", data, berr, serr)
		}
		if berr != nil {
			return
		}
		if stored.raw == "" {
			t.Fatalf("%x: adopted document is not stored", data)
		}
		enc := EncodeDoc(built)
		if got := EncodeDoc(stored); !bytes.Equal(got, enc) {
			t.Fatalf("%x: stored re-encodes to %x, built to %x", data, got, enc)
		}
		odd, _ := checkDoc(data)
		if !odd && !bytes.Equal(enc, data) {
			t.Fatalf("%x: not odd, yet re-encodes to %x", data, enc)
		}
		sameDoc(t, "", built, stored)
		// What was adopted is adopted again as it is.
		again, err := AdoptDoc(EncodeDoc(stored))
		if err != nil || again.raw != stored.raw {
			t.Fatalf("%x: re-adopting gives %v, %v", data, again, err)
		}
	})
}

// sameDoc fails t unless every accessor of got reads what it reads on
// want, at every depth: Len, Field, Get, Path, PathString, SizeBytes,
// SizeBytesOf, ToRecord and String, and each nested document and list
// through DocValue.Doc, List and the iterator the store reads lists with.
func sameDoc(t *testing.T, at string, want, got *Doc) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: Len %d, want %d", at, got.Len(), want.Len())
	}
	if got.SizeBytes() != want.SizeBytes() {
		t.Fatalf("%s: SizeBytes %d, want %d", at, got.SizeBytes(), want.SizeBytes())
	}
	if got.String() != want.String() {
		t.Fatalf("%s: String %s, want %s", at, got, want)
	}
	if g, w := got.ToRecord().Fields(), want.ToRecord().Fields(); !slices.Equal(g, w) {
		t.Fatalf("%s: ToRecord %v, want %v", at, g, w)
	}
	names := []string{"", "absent"}
	for i := 0; i < want.Len(); i++ {
		wn, wv := want.Field(i)
		gn, gv := got.Field(i)
		if gn != wn {
			t.Fatalf("%s: field %d is %q, want %q", at, i, gn, wn)
		}
		sameValue(t, at+"."+wn, wv, gv)
		names = append(names, wn)
		if gs, ws := got.SizeBytesOf([]string{wn, "absent"}), want.SizeBytesOf([]string{wn, "absent"}); gs != ws {
			t.Fatalf("%s: SizeBytesOf(%q) %d, want %d", at, wn, gs, ws)
		}
		if wv.IsDoc() {
			for j := 0; j < wv.Doc().Len(); j++ {
				sub, _ := wv.Doc().Field(j)
				names = append(names, wn+"."+sub, wn+"."+sub+".absent")
			}
		}
	}
	for _, name := range names {
		wv, wok := want.Get(name)
		gv, gok := got.Get(name)
		if gok != wok {
			t.Fatalf("%s: Get(%q) found %v, want %v", at, name, gok, wok)
		}
		if wok {
			sameValue(t, at+" Get "+name, wv, gv)
		}
		wv, wok = want.Path(name)
		gv, gok = got.Path(name)
		if gok != wok {
			t.Fatalf("%s: Path(%q) found %v, want %v", at, name, gok, wok)
		}
		if wok {
			sameValue(t, at+" Path "+name, wv, gv)
		}
		if g, w := got.PathString(name), want.PathString(name); g != w {
			t.Fatalf("%s: PathString(%q) %q, want %q", at, name, g, w)
		}
	}
}

// sameValue fails t unless got reads as want does.
func sameValue(t *testing.T, at string, want, got DocValue) {
	t.Helper()
	if got.IsScalar() != want.IsScalar() || got.IsDoc() != want.IsDoc() || got.IsList() != want.IsList() {
		t.Fatalf("%s: %v is not the same kind of value as %v", at, got, want)
	}
	if g, w := got.Scalar(), want.Scalar(); g != w {
		t.Fatalf("%s: scalar %#v, want %#v", at, g, w)
	}
	if got.sizeBytes() != want.sizeBytes() {
		t.Fatalf("%s: size %d, want %d", at, got.sizeBytes(), want.sizeBytes())
	}
	switch {
	case want.IsDoc():
		sameDoc(t, at, want.Doc(), got.Doc())
	case want.IsList():
		wl, gl := want.List(), got.List()
		if len(gl) != len(wl) {
			t.Fatalf("%s: list of %d, want %d", at, len(gl), len(wl))
		}
		it := got.elems()
		for i := range wl {
			sameValue(t, fmt.Sprintf("%s[%d]", at, i), wl[i], gl[i])
			e, ok := it.next()
			if !ok {
				t.Fatalf("%s: the iterator ends at %d of %d", at, i, len(wl))
			}
			sameValue(t, fmt.Sprintf("%s[%d] iterated", at, i), wl[i], e)
		}
		if _, ok := it.next(); ok {
			t.Fatalf("%s: the iterator runs past %d", at, len(wl))
		}
	}
}

// TestStoredDocSetBuilds: Set on a stored document turns it into a built
// one holding the same fields, with the new one set.
func TestStoredDocSetBuilds(t *testing.T) {
	want := richDoc()
	d, err := AdoptDoc(EncodeDoc(want))
	if err != nil {
		t.Fatal(err)
	}
	d.Set("added", Num(7))
	want.Set("added", Num(7))
	if d.raw != "" || !bytes.Equal(EncodeDoc(d), EncodeDoc(want)) {
		t.Fatalf("after Set: %v, want %v", d, want)
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
		sameDoc(t, fmt.Sprint("doc ", i), docs[i], &got[i])
	}
	if _, err := AdoptDocs(buf[:ends[0]-1], ends[:1]); err == nil {
		t.Error("an end past the bytes was not refused")
	}
}

// TestWideDocIsAdoptedAsItIs: a document is odd only for bytes PutDoc
// never writes, however many fields it has. A wide one, whose nested
// document repeats its parent's names, keeps its bytes and shares its
// batch's copy; a repeat of the first name in the last field, at either
// depth, is re-encoded without it.
func TestWideDocIsAdoptedAsItIs(t *testing.T) {
	narrow, wide := EncodeDoc(listDocs()[0]), EncodeDoc(wideDoc(20, "", 0))
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
		data := EncodeDoc(wideDoc(20, "f0", depth))
		got, err := AdoptDoc(data)
		if err != nil {
			t.Fatal(err)
		}
		built, _ := DecodeDoc(data)
		if got.raw == string(data) || got.raw != string(EncodeDoc(built)) {
			t.Errorf("a name repeated at depth %d was not re-encoded away", depth)
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
	if err := s.EnsureTextIndexCtx(t.Context(), "text"); err != nil {
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
