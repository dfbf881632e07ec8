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
		return Nested(NewDoc(F("name", Str(name)), F("price", Num(price))))
	}
	return NewDoc(
		F("null", Scalar(record.Null)),
		F("string", Str("Matilda")),
		F("empty", Str("")),
		F("int", Num(-42)),
		F("max_int", Num(math.MaxInt64)),
		F("float", Scalar(record.Float(99.5))),
		F("neg_zero", Scalar(record.Float(math.Copysign(0, -1)))),
		F("nan", Scalar(record.Float(math.NaN()))),
		F("inf", Scalar(record.Float(math.Inf(-1)))),
		F("true", Scalar(record.Bool(true))),
		F("false", Scalar(record.Bool(false))),
		F("date", Scalar(record.Time(time.Date(2013, 3, 4, 0, 0, 0, 0, time.UTC)))),
		F("zoned", Scalar(record.Time(time.Date(2013, 3, 4, 19, 30, 15, 250_000_000, time.FixedZone("", -5*3600))))),
		F("nested", Nested(NewDoc(F("type", Str("Movie")), F("name", Str("Wicked"))))),
		F("empty_list", List()),
		F("shows", List(show("Wicked", 99), show("Once", 27))),
		F("mixed", List(Str("award"), Num(7), Nested(NewDoc(F("inner", show("Annie", 45)))))))
}

func TestCodecBytesMatchPR20(t *testing.T) {
	golden, err := os.ReadFile(codecGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got := EncodeDoc(codecFixture()); !bytes.Equal(got, golden) {
		t.Errorf("EncodeDoc(codecFixture()) = %x\nwant %x", got, golden)
	}
	d, err := AdoptDoc(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := EncodeDoc(d); !bytes.Equal(got, golden) {
		t.Errorf("re-encoding the adopted golden = %x\nwant %x", got, golden)
	}
	if v, _ := d.Path("empty_list"); !v.IsList() || elemCount(v) != 0 {
		t.Errorf("empty_list decodes as %v", v)
	}
	if got := d.PathString("shows"); got != "" {
		t.Errorf("a list path renders %q as a scalar", got)
	}
}
