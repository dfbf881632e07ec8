package cluster

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/dterr"
	"repro/internal/record"
	"repro/internal/store"
)

// filterDoc, combinatorDoc and docFilter are the filter codec as it was when
// a filter crossed the wire by way of a store.Doc: store.PutFilter must
// write what store.PutDoc writes for filterDoc's document, and
// store.ReadFilter must read what docFilter reads from the document
// store.AdoptDoc adopts, refusing what it refuses.

func filterDoc(f store.Filter) (*store.Doc, error) {
	switch v := f.(type) {
	case nil:
		return store.NewDoc(store.F("t", store.Str("nil"))), nil
	case store.Cond:
		fields := []store.Field{
			store.F("t", store.Str("cond")),
			store.F("op", store.Num(int64(v.Op))),
			store.F("path", store.Str(v.Path)),
			store.F("value", store.Scalar(v.Value)),
		}
		if len(v.Set) > 0 {
			set := make([]store.DocValue, len(v.Set))
			for i, s := range v.Set {
				set[i] = store.Scalar(s)
			}
			fields = append(fields, store.F("set", store.List(set...)))
		}
		return store.NewDoc(fields...), nil
	case store.And:
		return combinatorDoc("and", v)
	case store.Or:
		return combinatorDoc("or", v)
	case store.Not:
		kid, err := filterDoc(v.Inner)
		if err != nil {
			return nil, err
		}
		return store.NewDoc(store.F("t", store.Str("not")), store.F("kid", store.Nested(kid))), nil
	case store.All:
		return store.NewDoc(store.F("t", store.Str("all"))), nil
	default:
		return nil, dterr.Newf(dterr.CodeInvalidArgument, "cluster: unsupported filter type %T", f)
	}
}

func combinatorDoc(t string, kids []store.Filter) (*store.Doc, error) {
	vs := make([]store.DocValue, len(kids))
	for i, kid := range kids {
		kd, err := filterDoc(kid)
		if err != nil {
			return nil, err
		}
		vs[i] = store.Nested(kd)
	}
	return store.NewDoc(store.F("t", store.Str(t)), store.F("kids", store.List(vs...))), nil
}

func docFilter(d *store.Doc) (store.Filter, error) {
	switch t := d.PathString("t"); t {
	case "nil":
		return nil, nil
	case "all":
		return store.All{}, nil
	case "cond":
		opv, _ := d.Path("op")
		op, _ := opv.Scalar().AsInt()
		c := store.Cond{Path: d.PathString("path"), Op: store.Op(op)}
		if v, ok := d.Path("value"); ok {
			c.Value = v.Scalar()
		}
		if set, ok := d.Path("set"); ok && set.IsList() {
			for _, e := range elems(set) {
				c.Set = append(c.Set, e.Scalar())
			}
		}
		return c, nil
	case "and", "or":
		kidsV, _ := d.Path("kids")
		var kids []store.Filter
		for _, e := range elems(kidsV) {
			if e.Doc() == nil {
				return nil, dterr.New(dterr.CodeInvalidArgument, "cluster: combinator child is not a document")
			}
			kid, err := docFilter(e.Doc())
			if err != nil {
				return nil, err
			}
			kids = append(kids, kid)
		}
		if t == "and" {
			return store.And(kids), nil
		}
		return store.Or(kids), nil
	case "not":
		kidV, ok := d.Path("kid")
		if !ok || kidV.Doc() == nil {
			return nil, dterr.New(dterr.CodeInvalidArgument, "cluster: not-filter missing child")
		}
		kid, err := docFilter(kidV.Doc())
		if err != nil {
			return nil, err
		}
		return store.Not{Inner: kid}, nil
	default:
		return nil, dterr.Newf(dterr.CodeInvalidArgument, "cluster: unknown filter tag %q", t)
	}
}

// elems lists a list value's elements; none for a value that is no list.
func elems(v store.DocValue) []store.DocValue {
	var out []store.DocValue
	for it := v.Elems(); ; {
		e, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, e)
	}
}

// refDecodeFilter is the filter reader the reference codec had.
func refDecodeFilter(data []byte) (store.Filter, error) {
	d, err := store.AdoptDoc(data)
	if err != nil {
		return nil, dterr.Wrap(dterr.CodeInvalidArgument, err)
	}
	return docFilter(d)
}

// encodeFilter serializes a filter as the reference codec did; nil
// (match-all) is encodable.
func encodeFilter(f store.Filter) ([]byte, error) {
	d, err := filterDoc(f)
	if err != nil {
		return nil, err
	}
	return store.EncodeDoc(d), nil
}

func mustFilter(t testing.TB, f store.Filter) []byte {
	t.Helper()
	b, err := encodeFilter(f)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkFilterReader holds store.ReadFilter against the reference reader on
// data: both fail with the same code, or both read equal filters.
func checkFilterReader(t *testing.T, data []byte) (store.Filter, bool) {
	t.Helper()
	got, err := store.ReadFilter(data)
	want, wantErr := refDecodeFilter(data)
	if (err == nil) != (wantErr == nil) || dterr.CodeOf(err) != dterr.CodeOf(wantErr) {
		t.Fatalf("%x: read %v (%v), reference %v (%v)", data, got, err, want, wantErr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%x: read %#v, reference %#v", data, got, want)
	}
	return got, err == nil
}

// oddFilterDocs are filter documents no encoder writes but a reader must
// read as the reference does: fields out of order or unknown, values of
// the wrong shape, children where the tag has none, and every
// way a child can be missing or no filter.
func oddFilterDocs() []*store.Doc {
	cond := func() *store.Doc {
		return store.NewDoc(store.F("t", store.Str("cond")), store.F("path", store.Str("name")), store.F("value", store.Str("x")))
	}
	nested := store.Nested
	return []*store.Doc{
		store.NewDoc(store.F("value", store.Num(3)), store.F("path", store.Str("n")), store.F("op", store.Num(int64(store.OpGe))), store.F("t", store.Str("cond"))),
		store.NewDoc(store.F("t", store.Str("cond")), store.F("zz", store.List(store.Str("a"), nested(store.NewDoc()))), store.F("path", store.Str("p"))),
		store.NewDoc(store.F("t", store.Str("cond")), store.F("op", store.Str(" 7 ")), store.F("path", store.Num(12)), store.F("value", nested(cond()))),
		store.NewDoc(store.F("t", store.Str("cond")), store.F("op", store.Str("99999999999999999999")), store.F("path", store.List(store.Str("a")))),
		store.NewDoc(store.F("t", store.Str("cond")), store.F("op", store.Scalar(record.Float(2.5))), store.F("set", store.Str("notalist"))),
		store.NewDoc(store.F("t", store.Str("cond")), store.F("set", store.List()), store.F("kids", store.Str("ignored"))),
		store.NewDoc(store.F("t", store.Str("cond")), store.F("set", store.List(store.Num(1), nested(cond()), store.List(), store.Scalar(record.Null)))),
		store.NewDoc(store.F("t", store.Str("cond")), store.F("kid", store.Str("not a document")), store.F("kids", store.List(store.Num(1)))),
		store.NewDoc(store.F("kids", store.List(nested(cond()), nested(store.NewDoc(store.F("t", store.Str("all")))))), store.F("t", store.Str("or"))),
		store.NewDoc(store.F("t", store.Str("and")), store.F("kids", store.List())),
		store.NewDoc(store.F("t", store.Str("and"))),
		store.NewDoc(store.F("t", store.Str("and")), store.F("kids", nested(cond()))),
		store.NewDoc(store.F("t", store.Str("and")), store.F("kids", store.List(nested(cond()), store.Str("x"), nested(store.NewDoc(store.F("t", store.Str("?"))))))),
		store.NewDoc(store.F("t", store.Str("or")), store.F("kids", store.List(nested(store.NewDoc(store.F("t", store.Str("?")))), store.Str("x")))),
		store.NewDoc(store.F("t", store.Str("or")), store.F("kids", store.List(nested(store.NewDoc(store.F("t", store.Str("not"))))))),
		store.NewDoc(store.F("t", store.Str("not"))),
		store.NewDoc(store.F("t", store.Str("not")), store.F("kid", store.List(nested(cond())))),
		store.NewDoc(store.F("kid", nested(store.NewDoc(store.F("t", store.Str("bogus"))))), store.F("t", store.Str("not"))),
		store.NewDoc(store.F("kid", nested(store.NewDoc(store.F("t", store.Str("nil"))))), store.F("t", store.Str("not"))),
		store.NewDoc(store.F("t", store.Str("all")), store.F("kid", nested(store.NewDoc(store.F("t", store.Str("bogus")))))),
		store.NewDoc(store.F("t", store.Num(7))),
		store.NewDoc(store.F("t", store.Scalar(record.Null))),
		store.NewDoc(store.F("t", nested(store.NewDoc(store.F("t", store.Str("all")))))),
		store.NewDoc(store.F("t", store.Str("al"))),
		store.NewDoc(store.F("t", store.Str("cond "))),
		store.NewDoc(),
	}
}

// repeatedFieldDocs are filter documents with a field written twice, which
// PutDoc never writes: the reader must refuse them, as AdoptDoc does.
func repeatedFieldDocs() [][]byte {
	field := func(buf *bytes.Buffer, name string, v store.DocValue) {
		store.PutString(buf, name)
		// A one-field document's encoding is its count, then the field.
		one := store.EncodeDoc(store.NewDoc(store.F(name, v)))
		buf.Write(one[1+1+len(name):])
	}
	doc := func(fields func(*bytes.Buffer), n int) []byte {
		var buf bytes.Buffer
		store.PutUvarint(&buf, uint64(n))
		fields(&buf)
		return buf.Bytes()
	}
	condDoc := store.Nested(store.NewDoc(store.F("t", store.Str("cond")), store.F("path", store.Str("a"))))
	return [][]byte{
		doc(func(b *bytes.Buffer) {
			field(b, "t", store.Str("all"))
			field(b, "t", store.Str("cond"))
			field(b, "path", store.Str("first"))
			field(b, "path", store.Str("second"))
		}, 4),
		doc(func(b *bytes.Buffer) {
			field(b, "t", store.Str("and"))
			field(b, "kids", store.List(store.Str("bad")))
			field(b, "kids", store.List(condDoc))
		}, 3),
		doc(func(b *bytes.Buffer) {
			field(b, "t", store.Str("or"))
			field(b, "kids", store.List(condDoc))
			field(b, "kids", store.Num(1))
		}, 3),
		doc(func(b *bytes.Buffer) {
			field(b, "t", store.Str("cond"))
			field(b, "set", store.List(store.Num(1)))
			field(b, "set", store.List())
			field(b, "value", store.Str("v"))
			field(b, "value", store.List())
		}, 5),
		doc(func(b *bytes.Buffer) {
			field(b, "kid", condDoc)
			field(b, "t", store.Str("not"))
			field(b, "kid", store.Str("gone"))
		}, 3),
		doc(func(b *bytes.Buffer) {
			field(b, "t", store.Str("not"))
			field(b, "kid", store.Nested(store.NewDoc(store.F("t", store.Str("bogus")))))
			field(b, "kid", condDoc)
		}, 3),
	}
}

// oddFilter is a Filter the wire does not carry.
type oddFilter struct{}

func (oddFilter) Matches(*store.Doc) bool { return true }

// TestFilterCodecMatchesReference: every filter shape — nested Not, And
// and Or, an empty And, OpIn sets and conditions on every scalar kind — is
// written byte for byte as the reference writes it, and read back as the
// reference reads it; so is every odd document the reference reads, and a
// document with a field written twice is refused.
func TestFilterCodecMatchesReference(t *testing.T) {
	when := time.Date(2013, 6, 9, 20, 30, 1, 500, time.UTC)
	scalars := []record.Value{
		record.Null, record.String(""), record.String("Matilda"), record.Int(0), record.Int(math.MinInt64),
		record.Float(-0.5), record.Float(math.Inf(1)), record.Float(math.NaN()), record.Bool(true), record.Bool(false),
		record.Time(when), record.Time(when.In(time.FixedZone("x", 3600))),
	}
	filters := []store.Filter{nil, store.All{}, store.And{}, store.And(nil), store.Or{}, store.Not{}}
	for op := store.OpEq; op <= store.OpIn; op++ {
		for _, v := range scalars {
			filters = append(filters, store.Cond{Path: "attributes.award_winning", Op: op, Value: v})
		}
	}
	filters = append(filters,
		store.Cond{Path: "type", Op: store.OpIn, Set: scalars},
		store.Cond{Path: "type", Op: store.OpIn, Set: []record.Value{}},
		store.Cond{Op: store.Op(-3), Set: []record.Value{record.Int(1)}},
		store.Not{Inner: store.Not{Inner: store.Not{Inner: store.EqStr("type", "Movie")}}},
		store.And{store.Or{store.EqStr("type", "Show"), store.And{}, store.Not{Inner: store.All{}}}, store.Not{Inner: store.Or{}}, nil},
		store.Or{store.And{store.And{store.And{store.Exists("a")}}}, store.Cond{Path: "tags", Op: store.OpIn, Set: scalars[:3]}},
	)
	for _, f := range filters {
		var buf bytes.Buffer
		if err := store.PutFilter(&buf, f); err != nil {
			t.Fatalf("%#v: %v", f, err)
		}
		want := mustFilter(t, f)
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%#v: written %x, reference %x", f, buf.Bytes(), want)
		}
		checkFilterReader(t, want)
	}
	for _, f := range []store.Filter{oddFilter{}, store.And{store.All{}, store.Not{Inner: oddFilter{}}}} {
		var buf bytes.Buffer
		_, wantErr := filterDoc(f)
		if err := store.PutFilter(&buf, f); !errorsShareCode(err, wantErr) || dterr.CodeOf(err) != dterr.CodeInvalidArgument {
			t.Fatalf("%#v: %v, reference %v", f, err, wantErr)
		}
	}
	for _, d := range oddFilterDocs() {
		checkFilterReader(t, store.EncodeDoc(d))
	}
	for _, data := range repeatedFieldDocs() {
		if _, ok := checkFilterReader(t, data); ok {
			t.Fatalf("%x: a field written twice was read", data)
		}
	}
}

func errorsShareCode(a, b error) bool {
	return (a == nil) == (b == nil) && dterr.CodeOf(a) == dterr.CodeOf(b)
}

// FuzzDecodeFilter: the filter reader fails exactly when the reference
// reader does, with the same code, and otherwise reads the same filter,
// which is written back as the reference writes it and read back to
// itself.
func FuzzDecodeFilter(f *testing.F) {
	seed, _ := encodeFilter(store.And{store.EqStr("type", "Movie"), store.Not{Inner: store.Exists("gone")}})
	f.Add(seed)
	f.Add([]byte{})
	for _, d := range oddFilterDocs() {
		f.Add(store.EncodeDoc(d))
	}
	for _, data := range repeatedFieldDocs() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, ok := checkFilterReader(t, data)
		if !ok {
			return
		}
		var buf bytes.Buffer
		if err := store.PutFilter(&buf, got); err != nil {
			t.Fatalf("%#v: %v", got, err)
		}
		if want := mustFilter(t, got); !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%#v: written %x, reference %x", got, buf.Bytes(), want)
		}
		back, err := store.ReadFilter(buf.Bytes())
		if err != nil || !reflect.DeepEqual(back, got) {
			t.Fatalf("%#v read back as %#v (%v)", got, back, err)
		}
	})
}
