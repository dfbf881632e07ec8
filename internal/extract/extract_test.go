package extract

import (
	"slices"
	"strings"
	"testing"
)

// typeOf is the registered type of the exact phrase.
func typeOf(g *Gazetteer, name string) (Type, bool) {
	t, ok := g.entries[gazNorm(name)]
	return t, ok
}

func TestGazetteerAddLookup(t *testing.T) {
	g := NewGazetteer()
	g.Add(Movie, "Matilda")
	g.Add(Facility, "Shubert Theatre")
	if typ, ok := typeOf(g, "matilda"); !ok || typ != Movie {
		t.Errorf("typeOf(matilda) = %v, %v", typ, ok)
	}
	if typ, ok := typeOf(g, "SHUBERT THEATRE"); !ok || typ != Facility {
		t.Errorf("typeOf(shubert theatre) = %v, %v", typ, ok)
	}
	if _, ok := typeOf(g, "nope"); ok {
		t.Error("unknown phrase matched")
	}
	g.Add(Movie, "Matilda") // duplicate no-op
	if g.Len() != 2 {
		t.Errorf("Len = %d", g.Len())
	}
}

func TestDefaultGazetteerAwards(t *testing.T) {
	g := DefaultGazetteer()
	for _, show := range TableIVShows {
		if typ, ok := typeOf(g, show); !ok || typ != Movie {
			t.Errorf("Table IV show %q not registered as Movie", show)
		}
		if !g.awards[gazNorm(show)] {
			t.Errorf("Table IV show %q not award-flagged", show)
		}
	}
	if g.awards[gazNorm("Wicked")] {
		t.Error("Wicked should not be award-flagged")
	}
	if len(g.awards) != len(TableIVShows) {
		t.Errorf("award winners = %d", len(g.awards))
	}
}

func TestPaperTypeCountsComplete(t *testing.T) {
	if len(AllTypes) != 15 {
		t.Fatalf("AllTypes = %d", len(AllTypes))
	}
	for _, typ := range AllTypes {
		if PaperTypeCounts[typ] <= 0 {
			t.Errorf("missing paper count for %s", typ)
		}
		if typ != URL && len(DefaultNames[typ]) == 0 {
			// URL is extracted by pattern, not gazetteer.
			t.Errorf("no gazetteer names for %s", typ)
		}
	}
}

func TestParseMentionsLongestMatch(t *testing.T) {
	p := NewParser()
	res := p.Parse("The Walking Dead opened while Matilda an award-winning import from London grossed 960,998.")
	var names []string
	for _, m := range res.Mentions {
		names = append(names, strings.ToLower(m.Name))
	}
	joined := strings.Join(names, "|")
	if !strings.Contains(joined, "the walking dead") {
		t.Errorf("longest match failed: %v", names)
	}
	if !strings.Contains(joined, "matilda") {
		t.Errorf("matilda missed: %v", names)
	}
	if !strings.Contains(joined, "london") {
		t.Errorf("london missed: %v", names)
	}
}

func TestParseOffsetsValid(t *testing.T) {
	p := NewParser()
	text := "Hugh Jackman stars in The Wolverine at the Shubert Theatre in New York."
	res := p.Parse(text)
	if len(res.Mentions) < 4 {
		t.Fatalf("mentions = %v", res.Mentions)
	}
	for _, m := range res.Mentions {
		if m.Type == URL {
			continue
		}
		got := text[m.Start:m.End]
		if !strings.EqualFold(got, m.Name) {
			t.Errorf("offset mismatch: %q vs %q", got, m.Name)
		}
	}
}

func TestParsePatterns(t *testing.T) {
	p := NewParser()
	text := `Tickets from $27 at http://broadway.example.com start 3/4/2013, Tues at 7pm, grossed 960,998 or 93 percent.`
	res := p.Parse(text)
	var urls int
	for _, m := range res.Mentions {
		if m.Type == URL {
			urls++
		}
	}
	if urls != 1 {
		t.Errorf("url mentions = %d", urls)
	}
	// Attribute extraction shows up on entities; parse a text with an entity.
	res2 := p.Parse("Matilda tickets from $27, first performance 3/4/2013, Tues at 7pm.")
	if len(res2.Entities) == 0 {
		t.Fatal("no entities")
	}
	ent := res2.Entities[0]
	if attr(ent, "price") != "$27" {
		t.Errorf("price attr = %q", attr(ent, "price"))
	}
	if attr(ent, "date") != "3/4/2013" {
		t.Errorf("date attr = %q", attr(ent, "date"))
	}
	if !strings.Contains(strings.ToLower(attr(ent, "schedule")), "tues at 7pm") {
		t.Errorf("schedule attr = %q", attr(ent, "schedule"))
	}
}

// attr returns the value of e's attribute key, or "".
func attr(e Entity, key string) string {
	for _, a := range e.Attributes {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

func TestEntitiesDedupAndAwardFlag(t *testing.T) {
	p := NewParser()
	res := p.Parse("Matilda was great. Matilda again! And Wicked too.")
	count := map[string]int{}
	for _, e := range res.Entities {
		count[strings.ToLower(e.Name)]++
	}
	if count["matilda"] != 1 {
		t.Errorf("matilda entities = %d, want 1 (dedup)", count["matilda"])
	}
	for _, e := range res.Entities {
		switch strings.ToLower(e.Name) {
		case "matilda":
			if attr(e, "award_winning") != "true" {
				t.Error("matilda should be award_winning")
			}
		case "wicked":
			if attr(e, "award_winning") == "true" {
				t.Error("wicked should not be award_winning")
			}
		}
	}
}

func TestInstanceAndEntityDocs(t *testing.T) {
	p := NewParser()
	res := p.Parse("Matilda grossed 960,998 at the Shubert Theatre.")
	inst := res.InstanceDoc("http://example.com/1")
	if inst.PathString("source_url") != "http://example.com/1" {
		t.Errorf("source_url = %q", inst.PathString("source_url"))
	}
	ents, ok := inst.Path("entities")
	n := 0
	for it := ents.Elems(); ; n++ {
		if _, more := it.Next(); !more {
			break
		}
	}
	if !ok || !ents.IsList() || n < 2 {
		t.Fatalf("entities list = %v, %v", ents, ok)
	}
	docs := res.EntityDocs("http://example.com/1")
	if len(docs) < 2 {
		t.Fatalf("entity docs = %d", len(docs))
	}
	found := false
	for _, d := range docs {
		if strings.EqualFold(d.PathString("name"), "Matilda") {
			found = true
			if d.PathString("attributes.gross") == "" {
				t.Error("matilda entity missing gross attribute")
			}
		}
	}
	if !found {
		t.Error("matilda entity doc missing")
	}
}

func TestParseEmptyText(t *testing.T) {
	p := NewParser()
	res := p.Parse("")
	if len(res.Mentions) != 0 || len(res.Entities) != 0 {
		t.Errorf("empty parse = %+v", res)
	}
}

func BenchmarkParse(b *testing.B) {
	p := NewParser()
	text := "Matilda an award-winning import from London grossed 960,998 or 93 percent at the Shubert Theatre; tickets from $27 starting 3/4/2013."
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Parse(text)
	}
}

func TestGazetteerNamesStaySorted(t *testing.T) {
	g := NewGazetteer()
	for _, n := range []string{"Wicked", "annie", "Matilda", "  Once ", "matilda", "Chicago"} {
		g.Add(Movie, n)
	}
	g.Add(City, "Chicago") // already a Movie: first registration wins
	g.Add(City, "Boston")
	if got, want := g.Names(Movie), []string{"annie", "chicago", "matilda", "once", "wicked"}; !slices.Equal(got, want) {
		t.Errorf("Names(Movie) = %q, want %q", got, want)
	}
	if got, want := g.Names(City), []string{"boston"}; !slices.Equal(got, want) {
		t.Errorf("Names(City) = %q, want %q", got, want)
	}
	if g.Names(Person) != nil {
		t.Error("a type with no names lists some")
	}
	// The list is the gazetteer's own; appending to it must not reach the
	// name added next.
	_ = append(g.Names(Movie), "zzz")
	g.Add(Movie, "Zorro")
	if got := g.Names(Movie); got[len(got)-1] != "zorro" {
		t.Errorf("a caller's append overwrote the gazetteer's list: %q", got)
	}
}
