package store

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/record"
)

func TestDocSetGetPath(t *testing.T) {
	inner := NewDoc(F("name", Str("Matilda")), F("type", Str("Movie")))
	d := NewDoc(
		F("entity", Nested(inner)),
		F("score", Scalar(record.Float(0.9))),
		F("tags", List(Str("award"), Str("broadway"))))

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
	if !ok || !v.IsList() || elemCount(v) != 2 {
		t.Errorf("tags path = %v, %v", v, ok)
	}
}

// elemCount counts a list value's elements.
func elemCount(v DocValue) int {
	n := 0
	for it := v.Elems(); ; n++ {
		if _, ok := it.Next(); !ok {
			return n
		}
	}
}

// fromRecord is the one-level document of r's fields: the reference
// PutRecord is checked against.
func fromRecord(r *record.Record) *Doc {
	fields := make([]Field, r.Len())
	for i, f := range r.Fields() {
		fields[i] = F(f.Name, Scalar(f.Value))
	}
	return NewDoc(fields...)
}

func TestDocRecordRoundTrip(t *testing.T) {
	r := record.New()
	r.Set("show", record.String("Wicked"))
	r.Set("price", record.Float(99.5))
	d := fromRecord(r)
	back := d.ToRecord()
	if !slices.Equal(back.Fields(), r.Fields()) {
		t.Errorf("round trip: %v != %v", r, back)
	}
}

func TestDocToRecordSkipsNested(t *testing.T) {
	d := NewDoc(F("a", Num(1)), F("b", Nested(NewDoc())))
	r := d.ToRecord()
	if r.Len() != 1 || !r.Has("a") {
		t.Errorf("ToRecord = %v", r)
	}
}

func TestSizeBytesMonotonic(t *testing.T) {
	small := NewDoc(F("a", Str("x")))
	big := NewDoc(F("a", Str("x")), F("b", Str("a much longer value here")))
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
		return slices.Equal(fromRecord(r).ToRecord().Fields(), r.Fields())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDocString(t *testing.T) {
	d := NewDoc(F("a", Num(1)), F("b", List(Str("x"))))
	if got := d.String(); got != "{a: 1, b: [x]}" {
		t.Errorf("String = %q", got)
	}
}

// docModel is what a Doc must behave as: a map for lookup beside a slice for
// order. A Doc holds neither; it scans its bytes.
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

// doc builds the model's document.
func (m *docModel) doc() *Doc {
	fields := make([]Field, len(m.order))
	for i, name := range m.order {
		fields[i] = F(name, m.values[name])
	}
	return NewDoc(fields...)
}

func checkDocAgainstModel(t *testing.T, d *Doc, m *docModel, names []string) {
	t.Helper()
	if got := docNames(d); !slices.Equal(got, m.order) {
		t.Fatalf("names = %v, model %v", got, m.order)
	}
	for _, name := range names {
		want, wantOK := m.values[name]
		if p, pok := d.Path(name); pok != wantOK || p.String() != want.String() {
			t.Fatalf("Path(%q) = %v, %v; model %v, %v", name, p, pok, want, wantOK)
		}
	}
}

// TestDocMatchesMapAndOrderModel: a document built from fields holds them
// in their order, reads each by name, and is a copy: its codec copy is
// equal to it, and neither moves when the fields it was built from are set
// again.
func TestDocMatchesMapAndOrderModel(t *testing.T) {
	names := []string{"type", "name", "source_url", "attributes", "text", "entities", "price", ""}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := &docModel{values: map[string]DocValue{}}
		d := m.doc()
		for step := 0; step < 200; step++ {
			switch op := rng.Intn(10); {
			case op < 6: // set: a new field goes last, a known one keeps its place
				name, v := names[rng.Intn(len(names))], Num(int64(step))
				if rng.Intn(4) == 0 {
					v = Nested(NewDoc(F("k", Num(int64(step)))))
				}
				m.set(name, v)
				d = m.doc()
			case op < 8: // codec copy: equal now, and unaffected by what follows
				c, err := AdoptDoc(EncodeDoc(d))
				if err != nil {
					t.Fatal(err)
				}
				checkDocAgainstModel(t, c, m, names)
				before := c.String()
				name := names[rng.Intn(len(names))]
				m.set(name, Str("after the copy"))
				d = m.doc()
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
	}
	var none *Doc
	if _, ok := none.Path("name"); ok || none.Len() != 0 {
		t.Error("a nil document holds nothing")
	}
	if _, ok := none.Path("a.b"); ok {
		t.Error("a path into a nil document resolves nothing")
	}
	defer func() {
		if recover() == nil {
			t.Error("a name given twice did not panic")
		}
	}()
	NewDoc(F("a", Num(1)), F("b", Num(2)), F("a", Num(3)))
}

// The allocation budget of building a document: the Doc and its bytes. The
// fields are encoded on the stack and copied once; a field list cost two
// more.
func TestNewDocAllocations(t *testing.T) {
	n := testing.AllocsPerRun(100, func() {
		NewDoc(F("type", Str("Movie")), F("name", Str("Matilda")), F("source_url", Str("u")),
			F("text", Str("t")), F("price", Num(27)))
	})
	if n > 2 {
		t.Errorf("NewDoc of five fields allocates %v times, want at most 2", n)
	}
}

// The tag tells the three kinds apart, so the empty document and the empty
// list still read as what they were built as, and a nested document or a
// list reads as the null scalar.
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
	if d := Nested(nil).Doc(); d == nil || d.Len() != 0 || d.raw != NewDoc().raw {
		t.Errorf("Nested(nil).Doc() is %v, not the empty document", d)
	}
	if !(DocValue{}).Scalar().IsNull() || !Nested(NewDoc()).Scalar().IsNull() || !List(Num(1)).Scalar().IsNull() {
		t.Error("the zero value, a nested document and a list must read as the null scalar")
	}
}

// field is the value of d's top-level field name, found by Field.
func field(d *Doc, name string) (DocValue, bool) {
	for i := range d.Len() {
		if n, v := d.Field(i); n == name {
			return v, true
		}
	}
	return DocValue{}, false
}

// docNames lists d's top-level field names in order.
func docNames(d *Doc) []string {
	names := make([]string, d.Len())
	for i := range names {
		names[i], _ = d.Field(i)
	}
	return names
}
