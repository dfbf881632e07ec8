package ingest

import (
	"fmt"
	"slices"
	"testing"

	"repro/dterr"
	"repro/internal/record"
)

// TestReadJSON: RecordFromMap types the values of a decoded JSON row, where
// every number arrives as a float64.
func TestReadJSON(t *testing.T) {
	var recs []*record.Record
	for _, row := range []map[string]any{
		{"show": "Matilda", "price": float64(27), "sold_out": false, "rating": 4.5},
		{"show": "Once", "price": nil},
	} {
		r, err := RecordFromMap(row)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
	}
	r := recs[0]
	if v, _ := r.Get("price"); v.Kind() != record.KindInt {
		t.Errorf("price kind = %v", v.Kind())
	}
	if v, _ := r.Get("rating"); v.Kind() != record.KindFloat {
		t.Errorf("rating kind = %v", v.Kind())
	}
	if v, _ := r.Get("sold_out"); v.Kind() != record.KindBool {
		t.Errorf("sold_out kind = %v", v.Kind())
	}
	if v, _ := recs[1].Get("price"); !v.IsNull() {
		t.Errorf("null price = %v", v)
	}
}

func TestReadJSONRejectsNested(t *testing.T) {
	if _, err := RecordFromMap(map[string]any{"a": map[string]any{"nested": float64(1)}}); err == nil {
		t.Error("nested object should be rejected")
	}
}

func TestAttributes(t *testing.T) {
	var recs []*record.Record
	for _, row := range [][2]string{{"A", "1"}, {"B", "2"}, {"C", "not-a-number"}} {
		r := record.New()
		r.Set("name", record.Infer(row[0]))
		r.Set("price", record.Infer(row[1]))
		recs = append(recs, r)
	}
	recs[2].Set("Show Name", record.String("C"))
	recs[1].Set("show_name", record.String("B"))
	attrs := NewSource("s", recs).Attributes()
	if want := []string{"name", "price", "show_name"}; !slices.Equal(attrs, want) {
		t.Fatalf("attributes = %q, want %q: first-seen order, one per normalized name", attrs, want)
	}
}

// A row may carry MaxRecordFields fields and no more: the bound keeps
// building a record linear in its size.
func TestRecordFromMapFieldCap(t *testing.T) {
	row := map[string]any{}
	for i := 0; i < MaxRecordFields; i++ {
		row[fmt.Sprintf("f%04d", i)] = float64(i)
	}
	r, err := RecordFromMap(row)
	if err != nil || r.Len() != MaxRecordFields {
		t.Fatalf("row of %d fields: %v, %v", MaxRecordFields, r, err)
	}
	row["one_more"] = "x"
	if _, err := RecordFromMap(row); dterr.CodeOf(err) != dterr.CodeInvalidArgument {
		t.Errorf("row of %d fields: err = %v, want invalid_argument", len(row), err)
	}
}

func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	s1 := NewSource("a", []*record.Record{record.New()})
	s2 := NewSource("b", nil)
	reg.Register(s1)
	reg.Register(s2)
	if got, _ := reg.Get("a"); got != s1 {
		t.Error("Get(a) failed")
	}
	if len(reg.Sources()) != 2 {
		t.Errorf("sources = %d", len(reg.Sources()))
	}
	// Replacement keeps order.
	s1b := NewSource("a", nil)
	reg.Register(s1b)
	if len(reg.Sources()) != 2 || reg.Sources()[0] != s1b {
		t.Error("replacement broke ordering")
	}
}
