package schema

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/ingest"
	"repro/internal/record"
)

// show builds a fixture record: the show's name under showAttr and, when
// priceAttr is not empty, its price under priceAttr.
func show(showAttr, name, priceAttr string, price int64) *record.Record {
	r := record.New()
	r.Set(showAttr, record.String(name))
	if priceAttr != "" {
		r.Set(priceAttr, record.Int(price))
	}
	return r
}

func TestFromSourceProfiles(t *testing.T) {
	s := ingest.NewSource("ft1", []*record.Record{
		show("Show", "Matilda", "Price", 27),
		show("Show", "Wicked", "Price", 89),
		show("Show", "Matilda", "Price", 27),
	})
	ss := FromSource(s)
	if ss.Source != "ft1" || len(ss.Attrs) != 2 {
		t.Fatalf("schema = %+v", ss)
	}
	show := ss.Attrs[0]
	if show.Kind != record.KindString {
		t.Errorf("show kind = %v", show.Kind)
	}
	if len(show.Samples) != 2 { // distinct samples
		t.Errorf("samples = %v", show.Samples)
	}
	price := ss.Attrs[1]
	if price.Kind != record.KindInt {
		t.Errorf("price kind = %v", price.Kind)
	}
}

func TestAddAttributeBottomUp(t *testing.T) {
	g := NewGlobal()
	s := ingest.NewSource("ft1", []*record.Record{show("Show Name", "Matilda", "Price", 27)})
	ss := FromSource(s)
	a := g.AddAttribute(ss.Attrs[0], "ft1")
	if a.Name != "SHOW_NAME" {
		t.Errorf("global name = %q", a.Name)
	}
	if g.Len() != 1 {
		t.Errorf("Len = %d", g.Len())
	}
	// Re-adding same normalized name merges rather than duplicating.
	s2 := ingest.NewSource("ft2", []*record.Record{show("show-name", "Wicked", "", 0)})
	ss2 := FromSource(s2)
	a2 := g.AddAttribute(ss2.Attrs[0], "ft2")
	if a2 != a || g.Len() != 1 {
		t.Errorf("duplicate add created new attribute")
	}
	if len(a.Sources) != 2 {
		t.Errorf("sources = %v", a.Sources)
	}
	if len(a.Samples) != 2 {
		t.Errorf("samples = %v", a.Samples)
	}
}

func TestMapAttribute(t *testing.T) {
	g := NewGlobal()
	s := ingest.NewSource("ft1", []*record.Record{show("Show", "Matilda", "Cost", 27)})
	ss := FromSource(s)
	global := g.AddAttribute(ss.Attrs[0], "ft1")
	if err := g.MapAttribute(ss.Attrs[1], "ft1", global); err != nil {
		t.Fatal(err)
	}
	if got, ok := mappingFor(g, "ft1", "Cost"); !ok || got != global.Name {
		t.Errorf("MappingFor = %q, %v", got, ok)
	}
	// Mapping to an attribute not in the schema errors.
	if err := g.MapAttribute(ss.Attrs[1], "ft1", &Attribute{Name: "GHOST"}); err == nil {
		t.Error("mapping to unknown global attr should error")
	}
}

func TestTranslate(t *testing.T) {
	g := NewGlobal()
	s := ingest.NewSource("ft1", []*record.Record{show("Show", "Matilda", "Cost", 27)})
	ss := FromSource(s)
	showAttr := g.AddAttribute(ss.Attrs[0], "ft1")
	priceAttr := g.AddAttribute(&Attribute{Name: "PRICE", Kind: record.KindInt}, "seed")
	if err := g.MapAttribute(ss.Attrs[1], "ft1", priceAttr); err != nil {
		t.Fatal(err)
	}

	r := s.Records[0]
	out := g.Translate(r)
	if out.GetString(showAttr.Name) != "Matilda" {
		t.Errorf("translated show = %v", out)
	}
	if out.GetString("PRICE") != "27" {
		t.Errorf("translated price = %v", out)
	}
	if out.Source != "ft1" {
		t.Error("provenance lost")
	}
}

func TestTranslateUnmappedPassThrough(t *testing.T) {
	g := NewGlobal()
	r := record.New()
	r.Source = "s"
	r.Set("mystery", record.Int(1))
	out := g.Translate(r)
	if !out.Has("mystery") {
		t.Error("unmapped field should pass through")
	}
}

func TestSampleCapRespected(t *testing.T) {
	g := NewGlobal()
	big := &Attribute{Name: "X"}
	for i := 0; i < 200; i++ {
		big.Samples = append(big.Samples, strings.Repeat("v", i+1))
	}
	// AddAttribute copies samples as-is; merge enforces the cap.
	a := g.AddAttribute(&Attribute{Name: "X"}, "s1")
	g.mergeInto(a, big, "s2")
	if len(a.Samples) > 64 {
		t.Errorf("samples = %d, want <= 64", len(a.Samples))
	}
}

// mappingFor is the global attribute in force for the source's attr.
func mappingFor(g *Global, source, attr string) (string, bool) {
	return g.mappingFor(sourceAttr{source, record.NormalizeName(attr)})
}

// mappingCount is how many (source attribute, target) mappings g holds.
func mappingCount(g *Global) int {
	n := 0
	for _, targets := range g.mapped {
		n += len(targets)
	}
	return n
}

func TestMappingRecordedOnce(t *testing.T) {
	g := NewGlobal()
	price := g.AddAttribute(&Attribute{Name: "PRICE", Kind: record.KindInt}, "seed")
	cost := g.AddAttribute(&Attribute{Name: "COST", Kind: record.KindInt}, "seed")
	src := &Attribute{Name: "Ticket Price", Kind: record.KindInt, Samples: []string{"27"}}
	before := mappingCount(g)
	// The same acceptance arriving with every batch, under any spelling of
	// the attribute and whatever the score, is one mapping.
	for _, name := range []string{"Ticket Price", "ticket_price", "TICKET-PRICE"} {
		src.Name = name
		if err := g.MapAttribute(src, "ft1", price); err != nil {
			t.Fatal(err)
		}
	}
	if got := mappingCount(g) - before; got != 1 {
		t.Errorf("recorded %d mappings for one source attribute and target, want 1", got)
	}
	// A second target is recorded, and the first stays in force.
	if err := g.MapAttribute(src, "ft1", cost); err != nil {
		t.Fatal(err)
	}
	if got := mappingCount(g) - before; got != 2 {
		t.Errorf("recorded %d mappings for two targets, want 2", got)
	}
	if got, ok := mappingFor(g, "ft1", "ticket price"); !ok || got != "PRICE" {
		t.Errorf("MappingFor = %q, %v; the first accepted mapping wins", got, ok)
	}
	// Another source's attribute of the same name is its own mapping.
	if err := g.MapAttribute(src, "ft2", cost); err != nil {
		t.Fatal(err)
	}
	if got, _ := mappingFor(g, "ft2", "Ticket Price"); got != "COST" {
		t.Errorf("ft2 maps to %q", got)
	}
}

func TestSignatureFollowsSamples(t *testing.T) {
	g := NewGlobal()
	a := g.AddAttribute(&Attribute{Name: "Price", Samples: []string{"27", " 27 ", "n/a"}}, "ft1")
	sig := a.Signature()
	if want := []string{"27", "n a"}; !slices.Equal(sig.Norm, want) {
		t.Errorf("Norm = %q, want %q", sig.Norm, want)
	}
	if !sig.Numeric || sig.Lo != 27 || sig.Hi != 27 {
		t.Errorf("range = [%v, %v] numeric %v", sig.Lo, sig.Hi, sig.Numeric)
	}
	if a.Signature() != sig {
		t.Error("signature derived again though Samples did not change")
	}
	g.AddAttribute(&Attribute{Name: "price", Samples: []string{"89.5", "call", "sold out", "tba"}}, "ft2")
	grown := a.Signature()
	if grown == sig || !slices.Contains(grown.Norm, "sold out") || grown.Hi != 89.5 {
		t.Errorf("signature did not follow the merged samples: %+v", grown)
	}
	if grown.Numeric {
		t.Error("3 numbers of 7 samples is not a numeric majority")
	}
}
