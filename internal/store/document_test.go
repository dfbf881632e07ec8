package store

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/record"
)

func TestDocSetGetPath(t *testing.T) {
	inner := NewDoc().Set("name", Str("Matilda")).Set("type", Str("Movie"))
	d := NewDoc().
		Set("entity", Nested(inner)).
		Set("score", Scalar(record.Float(0.9))).
		Set("tags", List(Str("award"), Str("broadway")))

	if got := d.PathString("entity.name"); got != "Matilda" {
		t.Errorf("PathString(entity.name) = %q", got)
	}
	if got := d.PathString("entity.missing"); got != "" {
		t.Errorf("missing path = %q", got)
	}
	if _, ok := d.Path("score.deeper"); ok {
		t.Error("path through scalar should fail")
	}
	v, ok := d.Path("tags")
	if !ok || !v.IsList() || len(v.List()) != 2 {
		t.Errorf("tags path = %v, %v", v, ok)
	}
}

func TestDocSetReplace(t *testing.T) {
	d := NewDoc().Set("a", Num(1)).Set("a", Num(2))
	if d.Len() != 1 {
		t.Fatalf("Len = %d", d.Len())
	}
	if got := d.PathString("a"); got != "2" {
		t.Errorf("a = %q", got)
	}
}

func TestDocRecordRoundTrip(t *testing.T) {
	r := record.New()
	r.Set("show", record.String("Wicked"))
	r.Set("price", record.Float(99.5))
	d := FromRecord(r)
	back := d.ToRecord()
	if !slices.Equal(back.Fields(), r.Fields()) {
		t.Errorf("round trip: %v != %v", r, back)
	}
}

func TestDocToRecordSkipsNested(t *testing.T) {
	d := NewDoc().Set("a", Num(1)).Set("b", Nested(NewDoc()))
	r := d.ToRecord()
	if r.Len() != 1 || !r.Has("a") {
		t.Errorf("ToRecord = %v", r)
	}
}

func TestSizeBytesMonotonic(t *testing.T) {
	small := NewDoc().Set("a", Str("x"))
	big := NewDoc().Set("a", Str("x")).Set("b", Str("a much longer value here"))
	if small.SizeBytes() >= big.SizeBytes() {
		t.Errorf("size not monotonic: %d >= %d", small.SizeBytes(), big.SizeBytes())
	}
	if small.SizeBytes() <= 0 {
		t.Error("size should be positive")
	}
}

// Property: a record round-trips through a document for arbitrary values.
func TestQuickRecordRoundTrip(t *testing.T) {
	f := func(key, val string) bool {
		if record.NormalizeName(key) == "" {
			return true
		}
		r := record.New()
		r.Set(key, record.String(val))
		return slices.Equal(FromRecord(r).ToRecord().Fields(), r.Fields())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDocString(t *testing.T) {
	d := NewDoc().Set("a", Num(1)).Set("b", List(Str("x")))
	if got := d.String(); got != "{a: 1, b: [x]}" {
		t.Errorf("String = %q", got)
	}
}

// docModel is what a Doc must behave as: a map for lookup beside a slice for
// order. A Doc holds neither; it scans its field list.
type docModel struct {
	order  []string
	values map[string]DocValue
}

func (m *docModel) set(name string, v DocValue) {
	if _, ok := m.values[name]; !ok {
		m.order = append(m.order, name)
	}
	m.values[name] = v
}

func checkDocAgainstModel(t *testing.T, d *Doc, m *docModel, names []string) {
	t.Helper()
	if got := d.Names(); len(got) != len(m.order) {
		t.Fatalf("names = %v, model %v", got, m.order)
	}
	for i, name := range d.Names() {
		if name != m.order[i] {
			t.Fatalf("names = %v, model %v", d.Names(), m.order)
		}
	}
	for _, name := range names {
		got, ok := d.Get(name)
		want, wantOK := m.values[name]
		if ok != wantOK || got.String() != want.String() {
			t.Fatalf("Get(%q) = %v, %v; model %v, %v", name, got, ok, want, wantOK)
		}
		if p, pok := d.Path(name); pok != wantOK || p.String() != want.String() {
			t.Fatalf("Path(%q) = %v, %v; model %v, %v", name, p, pok, want, wantOK)
		}
	}
}

func TestDocMatchesMapAndOrderModel(t *testing.T) {
	names := []string{"type", "name", "source_url", "attributes", "text", "entities", "price", ""}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d, m := NewDoc(), &docModel{values: map[string]DocValue{}}
		if seed%2 == 0 {
			d = NewDocCap(rng.Intn(6))
		}
		for step := 0; step < 200; step++ {
			switch op := rng.Intn(10); {
			case op < 6: // set: a new field goes last, a known one keeps its place
				name, v := names[rng.Intn(len(names))], Num(int64(step))
				if rng.Intn(4) == 0 {
					v = Nested(NewDoc().Set("k", Num(int64(step))))
				}
				d.Set(name, v)
				m.set(name, v)
			case op < 8: // codec copy: equal now, and unaffected by what follows
				c, err := DecodeDoc(EncodeDoc(d))
				if err != nil {
					t.Fatal(err)
				}
				checkDocAgainstModel(t, c, m, names)
				before := c.String()
				name := names[rng.Intn(len(names))]
				d.Set(name, Str("after the clone"))
				m.set(name, Str("after the clone"))
				if nested, ok := d.Get("attributes"); ok && nested.IsDoc() {
					nested.Doc().Set("k", Str("deep write")) // the model shares the nested document
				}
				if got := c.String(); got != before {
					t.Fatalf("copy moved with its original: %s, was %s", got, before)
				}
			default: // nested path
				if v, ok := m.values["attributes"]; ok && v.IsDoc() {
					if got := d.PathString("attributes.k"); got != v.Doc().PathString("k") {
						t.Fatalf("PathString(attributes.k) = %q", got)
					}
				}
			}
			checkDocAgainstModel(t, d, m, names)
		}
		round, err := DecodeDoc(EncodeDoc(d))
		if err != nil {
			t.Fatal(err)
		}
		checkDocAgainstModel(t, round, m, names)
	}
	var none *Doc
	if _, ok := none.Get("name"); ok || none.Len() != 0 {
		t.Error("a nil document holds nothing")
	}
	if _, ok := none.Path("a.b"); ok {
		t.Error("a path into a nil document resolves nothing")
	}
}

// The allocation budget of building a document: the Doc, and its field list
// grown twice. The map a Doc used to carry cost three more.
func TestDocSetAllocations(t *testing.T) {
	n := testing.AllocsPerRun(100, func() {
		NewDoc().Set("type", Str("Movie")).Set("name", Str("Matilda")).Set("source_url", Str("u")).
			Set("text", Str("t")).Set("price", Num(27))
	})
	if n > 4 {
		t.Errorf("NewDoc and five Sets allocate %v times, want at most 4", n)
	}
}

// A field is its name and a DocValue: one 64-byte slot in a document.
func TestDocFieldSize(t *testing.T) {
	if n := unsafe.Sizeof(docField{}); n > 64 {
		t.Errorf("docField is %d bytes, budget 64", n)
	}
}

// The pointer that is set decides the kind, so the nil nested document and
// the empty list still read as what they were built as.
func TestDocValueKindFromPointers(t *testing.T) {
	cases := []struct {
		v                DocValue
		scalar, doc, lst bool
	}{
		{DocValue{}, true, false, false},
		{Str("x"), true, false, false},
		{Nested(nil), false, true, false},
		{Nested(NewDoc()), false, true, false},
		{List(), false, false, true},
		{List(Num(1)), false, false, true},
	}
	for _, c := range cases {
		if c.v.IsScalar() != c.scalar || c.v.IsDoc() != c.doc || c.v.IsList() != c.lst {
			t.Errorf("%#v: IsScalar %v IsDoc %v IsList %v", c.v, c.v.IsScalar(), c.v.IsDoc(), c.v.IsList())
		}
	}
	if Nested(nil).Doc() != nil {
		t.Error("Nested(nil).Doc() is not nil")
	}
	if !(DocValue{}).Scalar().IsNull() || !Nested(NewDoc()).Scalar().IsNull() {
		t.Error("the zero value and a nested document must read as the null scalar")
	}
}
