package ingest

import (
	"testing"

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

func TestAttributesAndTypes(t *testing.T) {
	var recs []*record.Record
	for _, row := range [][2]string{{"A", "1"}, {"B", "2"}, {"C", "not-a-number"}} {
		r := record.New()
		r.Set("name", record.Infer(row[0]))
		r.Set("price", record.Infer(row[1]))
		recs = append(recs, r)
	}
	src := NewSource("s", recs)
	attrs := src.Attributes()
	if len(attrs) != 2 {
		t.Fatalf("attributes = %v", attrs)
	}
	if k := src.AttributeType("price"); k != record.KindInt {
		t.Errorf("price dominant kind = %v", k)
	}
	if k := src.AttributeType("name"); k != record.KindString {
		t.Errorf("name kind = %v", k)
	}
	if k := src.AttributeType("missing"); k != record.KindString {
		t.Errorf("missing attr kind = %v", k)
	}
	if vals := src.Values("price"); len(vals) != 3 {
		t.Errorf("values = %v", vals)
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
