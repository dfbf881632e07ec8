package fuse

import (
	"context"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/record"
	"repro/internal/store"
)

func buildStores(t *testing.T) *Engine {
	t.Helper()
	instances := store.NewSharded("dt.instance", "source_url", 2, 0)
	entities := store.NewSharded("dt.entity", "name", 2, 0)

	addInstance := func(url, text string) {
		instances.Insert(store.NewDoc().
			Set("source_url", store.Str(url)).
			Set("text", store.Str(text)))
	}
	addEntity := func(typ, name string, award bool) {
		d := store.NewDoc().Set("type", store.Str(typ)).Set("name", store.Str(name))
		if award {
			d.Set("attributes", store.Nested(store.NewDoc().Set("award_winning", store.Str("true"))))
		}
		entities.Insert(d)
	}

	addInstance("u1", "Matilda an award-winning import from London grossed 960,998.")
	addInstance("u2", "Matilda ticket sales rose.")
	addInstance("u3", "Wicked had a fine week.")
	for i := 0; i < 5; i++ {
		addEntity("Movie", "the walking dead", true)
	}
	for i := 0; i < 3; i++ {
		addEntity("Movie", "matilda", true)
	}
	addEntity("Movie", "wicked", false)  // not award-winning: excluded
	addEntity("Person", "matilda", true) // wrong type: excluded
	return &Engine{Instances: instances, Entities: entities}
}

func TestTopDiscussed(t *testing.T) {
	e := buildStores(t)
	ctx := context.Background()
	top, err := e.TopDiscussed(ctx, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 {
		t.Fatalf("top = %+v", top)
	}
	if top[0].Name != "The Walking Dead" || top[0].Mentions != 5 {
		t.Errorf("top[0] = %+v", top[0])
	}
	if top[1].Name != "Matilda" || top[1].Mentions != 3 {
		t.Errorf("top[1] = %+v", top[1])
	}
	if got, err := e.TopDiscussed(ctx, 1); err != nil || len(got) != 1 {
		t.Errorf("k=1 gave %d (err %v)", len(got), err)
	}
}

func TestTextFeedsLongestFirst(t *testing.T) {
	e := buildStores(t)
	ctx := context.Background()
	feeds, err := e.TextFeeds(ctx, "Matilda", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(feeds) != 2 {
		t.Fatalf("feeds = %v", feeds)
	}
	if !strings.Contains(feeds[0], "960,998") {
		t.Errorf("longest feed first: %q", feeds[0])
	}
	if got, err := e.TextFeeds(ctx, "Matilda", 1); err != nil || len(got) != 1 {
		t.Errorf("limit = %d (err %v)", len(got), err)
	}
	if got, err := e.TextFeeds(ctx, "Nonexistent", 0); err != nil || len(got) != 0 {
		t.Errorf("missing show feeds = %v (err %v)", got, err)
	}
}

// TestTextFeedsKeepsTheBestOfASort: whatever the limit, the feeds kept in
// one pass are the head of all feeds sorted by score, then length, then
// text — including across ties and repeated texts.
func TestTextFeedsKeepsTheBestOfASort(t *testing.T) {
	instances := store.NewSharded("dt.instance", "source_url", 3, 0)
	var texts []string
	for i := 0; i < 40; i++ {
		// One sentence each, so a text's score is a count over the whole of it.
		text := "Matilda" + strings.Repeat(" grossed", i%3) + strings.Repeat(" and Matilda", i%2) +
			strings.Repeat(" filler", i%5) + []string{"", " a", " b"}[i%7%3]
		texts = append(texts, text)
		instances.Insert(store.NewDoc().Set("source_url", store.Str(strings.Repeat("u", i+1))).Set("text", store.Str(text)))
	}
	e := &Engine{Instances: instances}
	ctx := context.Background()
	all, err := e.TextFeeds(ctx, "matilda", 0)
	if err != nil || len(all) != len(texts) {
		t.Fatalf("unlimited: %d feeds of %d, %v", len(all), len(texts), err)
	}
	score := func(feed string) int { return 4*strings.Count(feed, "grossed") + 2*strings.Count(feed, "Matilda") }
	sort.SliceStable(texts, func(i, j int) bool {
		a, b := texts[i], texts[j]
		if score(a) != score(b) {
			return score(a) > score(b)
		}
		if len(a) != len(b) {
			return len(a) > len(b)
		}
		return a < b
	})
	if !slices.Equal(all, texts) {
		t.Fatalf("unlimited feeds are not the reference sort:\n%q\n%q", all, texts)
	}
	for _, limit := range []int{1, 2, 3, 7, 39, 40, 41, 1000} {
		got, err := e.TextFeeds(ctx, "matilda", limit)
		if err != nil || !slices.Equal(got, texts[:min(limit, len(texts))]) {
			t.Errorf("limit %d: %q (%v), want the first of %q", limit, got, err, texts)
		}
	}
}

func TestWebTextRecordTableVShape(t *testing.T) {
	e := buildStores(t)
	r, err := e.WebTextRecord(context.Background(), "Matilda")
	if err != nil {
		t.Fatal(err)
	}
	if r.GetString("SHOW_NAME") != "Matilda" {
		t.Errorf("show_name = %q", r.GetString("SHOW_NAME"))
	}
	if !strings.Contains(r.GetString("TEXT_FEED"), "grossed") {
		t.Errorf("text_feed = %q", r.GetString("TEXT_FEED"))
	}
	// Table V property: no structured fields from text alone.
	for _, absent := range []string{"THEATER", "PERFORMANCE", "CHEAPEST_PRICE", "FIRST"} {
		if r.Has(absent) {
			t.Errorf("web-text record should not have %s", absent)
		}
	}
}

func TestEnrichAddsStructuredFields(t *testing.T) {
	e := buildStores(t)
	web, err := e.WebTextRecord(context.Background(), "Matilda")
	if err != nil {
		t.Fatal(err)
	}
	structured := record.New()
	structured.Source = "ft00"
	structured.Set("SHOW_NAME", record.String("Matilda"))
	structured.Set("THEATER", record.String("Shubert 225 W. 44th St between 7th and 8th"))
	structured.Set("PERFORMANCE", record.String("Tues at 7pm"))
	structured.Set("CHEAPEST_PRICE", record.String("$27"))
	structured.Set("FIRST", record.String("3/4/2013"))

	enriched := Enrich(web, structured)
	for _, attr := range TableVIOrder {
		if !enriched.Has(attr) {
			t.Errorf("enriched missing %s", attr)
		}
	}
	// Existing text fields win.
	if enriched.GetString("SHOW_NAME") != "Matilda" {
		t.Errorf("show name = %q", enriched.GetString("SHOW_NAME"))
	}
	if !strings.Contains(enriched.Source, "webinstance") || !strings.Contains(enriched.Source, "ft00") {
		t.Errorf("provenance = %q", enriched.Source)
	}
	// Original untouched (clone semantics).
	if web.Has("THEATER") {
		t.Error("Enrich mutated its input")
	}
}

func TestEnrichNilStructured(t *testing.T) {
	r := record.New()
	r.Set("A", record.Int(1))
	out := Enrich(r, nil)
	if !slices.Equal(out.Fields(), r.Fields()) {
		t.Errorf("nil enrich = %v", out)
	}
}

func TestLookupNormalized(t *testing.T) {
	r1 := record.New()
	r1.Set("SHOW_NAME", record.String("Matilda"))
	r2 := record.New()
	r2.Set("SHOW_NAME", record.String("The  MATILDA")) // normalization is lower+space collapse
	r3 := record.New()
	r3.Set("SHOW_NAME", record.String("Wicked"))
	got := NewShowIndex([]*record.Record{r1, r2, r3}, "SHOW_NAME").Lookup("matilda")
	if len(got) != 1 || got[0] != r1 {
		t.Errorf("lookup = %d records", len(got))
	}
}

func TestFormatKVOrderAndQuoting(t *testing.T) {
	r := record.New()
	r.Set("TEXT_FEED", record.String("some text"))
	r.Set("SHOW_NAME", record.String("Matilda"))
	r.Set("EXTRA", record.String("x"))
	out := FormatKV(r, TableVIOrder)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if !strings.HasPrefix(lines[0], "SHOW_NAME") {
		t.Errorf("first line = %q", lines[0])
	}
	if !strings.Contains(lines[0], `"Matilda"`) {
		t.Errorf("quoting = %q", lines[0])
	}
	if !strings.HasPrefix(lines[len(lines)-1], "EXTRA") {
		t.Errorf("non-preferred should come last: %q", lines[len(lines)-1])
	}
	// No duplicates for preferred attrs present in record.
	if strings.Count(out, "SHOW_NAME") != 1 {
		t.Errorf("duplicate rows:\n%s", out)
	}
}
