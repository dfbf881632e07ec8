package store

import (
	"bytes"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/record"
)

// codecGolden holds EncodeDoc(codecFixture()) as written by the encoder of
// PR 20, before record.Value and DocValue were made compact: the bytes on
// disk and on the wire must not move with the in-memory layout.
const codecGolden = "testdata/codec-pr20.bin"

// codecFixture is one document with every scalar kind (a non-UTC,
// sub-second time and NaN among them), a nested document, an empty list, a
// list of nested documents and a nested document inside a mixed list.
func codecFixture() *Doc {
	show := func(name string, price int64) DocValue {
		return Nested(NewDoc().Set("name", Str(name)).Set("price", Num(price)))
	}
	return NewDoc().
		Set("null", Scalar(record.Null)).
		Set("string", Str("Matilda")).
		Set("empty", Str("")).
		Set("int", Num(-42)).
		Set("max_int", Num(math.MaxInt64)).
		Set("float", Scalar(record.Float(99.5))).
		Set("neg_zero", Scalar(record.Float(math.Copysign(0, -1)))).
		Set("nan", Scalar(record.Float(math.NaN()))).
		Set("inf", Scalar(record.Float(math.Inf(-1)))).
		Set("true", Scalar(record.Bool(true))).
		Set("false", Scalar(record.Bool(false))).
		Set("date", Scalar(record.Time(time.Date(2013, 3, 4, 0, 0, 0, 0, time.UTC)))).
		Set("zoned", Scalar(record.Time(time.Date(2013, 3, 4, 19, 30, 15, 250_000_000, time.FixedZone("", -5*3600))))).
		Set("nested", Nested(NewDoc().Set("type", Str("Movie")).Set("name", Str("Wicked")))).
		Set("empty_list", List()).
		Set("shows", List(show("Wicked", 99), show("Once", 27))).
		Set("mixed", List(Str("award"), Num(7), Nested(NewDoc().Set("inner", show("Annie", 45)))))
}

func TestCodecBytesMatchPR20(t *testing.T) {
	golden, err := os.ReadFile(codecGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got := EncodeDoc(codecFixture()); !bytes.Equal(got, golden) {
		t.Errorf("EncodeDoc(codecFixture()) = %x\nwant %x", got, golden)
	}
	d, err := DecodeDoc(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := EncodeDoc(d); !bytes.Equal(got, golden) {
		t.Errorf("re-encoding the decoded golden = %x\nwant %x", got, golden)
	}
	if v, _ := d.Path("empty_list"); !v.IsList() || len(v.List()) != 0 {
		t.Errorf("empty_list decodes as %v", v)
	}
	if got := d.PathString("shows"); got != "" {
		t.Errorf("a list path renders %q as a scalar", got)
	}
}
