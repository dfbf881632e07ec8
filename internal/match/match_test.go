package match

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/record"
	"repro/internal/schema"
	"repro/internal/similarity"
	"repro/internal/textutil"
)

func attr(name string, kind record.Kind, samples ...string) *schema.Attribute {
	return &schema.Attribute{Name: name, Kind: kind, Samples: samples}
}

func TestNameMatcher(t *testing.T) {
	m := NewNameMatcher()
	if got := m.Score(attr("Show Name", record.KindString), attr("SHOW_NAME", record.KindString)); got != 1 {
		t.Errorf("normalized equality = %f", got)
	}
	syn := m.Score(attr("Theatre", record.KindString), attr("VENUE", record.KindString))
	if syn < 0.9 {
		t.Errorf("synonym score = %f", syn)
	}
	near := m.Score(attr("price", record.KindString), attr("PRICES", record.KindString))
	far := m.Score(attr("price", record.KindString), attr("PERFORMANCE", record.KindString))
	if near <= far {
		t.Errorf("ordering: near=%f far=%f", near, far)
	}
}

func TestNameMatcherTokenSynonyms(t *testing.T) {
	m := NewNameMatcher()
	// "ticket price" vs "cheapest price": shared canonical token "price".
	got := m.Score(attr("ticket price", record.KindInt), attr("CHEAPEST_PRICE", record.KindInt))
	if got < 0.5 {
		t.Errorf("token synonym score = %f", got)
	}
}

func TestTypeMatcher(t *testing.T) {
	m := TypeMatcher{}
	if m.Score(attr("a", record.KindInt), attr("b", record.KindInt)) != 1 {
		t.Error("same kind should be 1")
	}
	if got := m.Score(attr("a", record.KindInt), attr("b", record.KindFloat)); got != 0.85 {
		t.Errorf("numeric pair = %f", got)
	}
	if got := m.Score(attr("a", record.KindString), attr("b", record.KindTime)); got != 0.5 {
		t.Errorf("string absorb = %f", got)
	}
	if got := m.Score(attr("a", record.KindBool), attr("b", record.KindTime)); got != 0.2 {
		t.Errorf("incompatible = %f", got)
	}
}

func TestValueMatcherSetOverlap(t *testing.T) {
	m := ValueMatcher{}
	a := attr("show", record.KindString, "Matilda", "Wicked", "Once")
	b := attr("title", record.KindString, "Matilda", "Wicked", "Chicago")
	c := attr("city", record.KindString, "New York", "Boston")
	if m.Score(a, b) <= m.Score(a, c) {
		t.Error("overlapping value sets should score higher")
	}
	if m.Score(a, attr("empty", record.KindString)) != 0 {
		t.Error("empty side should be 0")
	}
}

func TestValueMatcherNumericRange(t *testing.T) {
	m := ValueMatcher{}
	a := attr("price", record.KindInt, "27", "45", "89", "120")
	b := attr("cost", record.KindInt, "30", "50", "99", "110")
	c := attr("year", record.KindInt, "1990", "2005", "2013")
	if m.Score(a, b) <= m.Score(a, c) {
		t.Errorf("range overlap ordering: ab=%f ac=%f", m.Score(a, b), m.Score(a, c))
	}
}

func TestCompositeBounds(t *testing.T) {
	c := DefaultComposite()
	a := attr("show name", record.KindString, "Matilda")
	pairs := []*schema.Attribute{
		attr("SHOW_NAME", record.KindString, "Matilda", "Wicked"),
		attr("PRICE", record.KindInt, "27"),
		attr("THEATER", record.KindString, "Shubert"),
	}
	for _, p := range pairs {
		s := c.Score(a, p)
		if s < 0 || s > 1 {
			t.Errorf("composite out of range: %f", s)
		}
	}
	if c.Score(a, pairs[0]) <= c.Score(a, pairs[1]) {
		t.Error("identical name should dominate")
	}
	if got := NewComposite().Score(a, pairs[0]); got != 0 {
		t.Errorf("empty composite = %f", got)
	}
}

func globalWith(t *testing.T, attrs ...*schema.Attribute) *schema.Global {
	t.Helper()
	g := schema.NewGlobal()
	for _, a := range attrs {
		g.AddAttribute(a, "seed")
	}
	return g
}

func TestMatchSourceDecisions(t *testing.T) {
	g := globalWith(t,
		attr("SHOW_NAME", record.KindString, "Matilda", "Wicked"),
		attr("THEATER", record.KindString, "Shubert Theatre", "Gershwin Theatre"),
		attr("CHEAPEST_PRICE", record.KindInt, "27", "45"),
	)
	ss := &schema.SourceSchema{Source: "ft7", Attrs: []*schema.Attribute{
		attr("Show Name", record.KindString, "Matilda", "Once"),       // exact match
		attr("Venue", record.KindString, "Shubert Theatre", "Booth"),  // synonym + value overlap
		attr("Box Office Fax", record.KindString, "555-1212", "none"), // no counterpart
	}}
	e := NewEngine()
	rep := e.MatchSource(ss, g)
	if len(rep.Matches) != 3 {
		t.Fatalf("matches = %d", len(rep.Matches))
	}
	if rep.Matches[0].Decision != DecisionAccept {
		t.Errorf("show name decision = %v (best %+v)", rep.Matches[0].Decision, rep.Matches[0].Best())
	}
	if rep.Matches[1].Best().Target != "THEATER" {
		t.Errorf("venue best target = %+v", rep.Matches[1].Best())
	}
	if rep.Matches[2].Decision != DecisionNew {
		t.Errorf("fax decision = %v (best %+v)", rep.Matches[2].Decision, rep.Matches[2].Best())
	}
	if len(rep.Alerts) != 1 || !strings.Contains(rep.Alerts[0], "no counterpart") {
		t.Errorf("alerts = %v", rep.Alerts)
	}
}

func TestMatchSourceEmptyGlobalAllNew(t *testing.T) {
	// Fig. 2's early stage: the global schema is empty, everything alerts.
	g := schema.NewGlobal()
	ss := &schema.SourceSchema{Source: "ft1", Attrs: []*schema.Attribute{
		attr("Show", record.KindString, "Matilda"),
		attr("Price", record.KindInt, "27"),
	}}
	rep := NewEngine().MatchSource(ss, g)
	for _, m := range rep.Matches {
		if m.Decision != DecisionNew {
			t.Errorf("%s decision = %v, want new", m.Attr.Name, m.Decision)
		}
	}
	if len(rep.Alerts) != 2 {
		t.Errorf("alerts = %d", len(rep.Alerts))
	}
}

func TestIntegrate(t *testing.T) {
	g := globalWith(t, attr("SHOW_NAME", record.KindString, "Matilda"))
	ss := &schema.SourceSchema{Source: "ft2", Attrs: []*schema.Attribute{
		attr("Show Name", record.KindString, "Wicked"),
		attr("Seating Chart URL", record.KindString, "http://x"),
	}}
	e := NewEngine()
	rep := e.MatchSource(ss, g)
	review, err := e.Integrate(rep, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(review) != 0 {
		t.Errorf("review = %v", review)
	}
	if g.Len() != 2 {
		t.Errorf("global len = %d, want 2 (new attr added)", g.Len())
	}
	r := record.New()
	r.Source = "ft2"
	r.Set("Show Name", record.String("Wicked"))
	if got := g.Translate(r).GetString("SHOW_NAME"); got != "Wicked" {
		t.Errorf("Show Name not mapped onto SHOW_NAME: %v", g.Translate(r))
	}
}

func TestIntegrateReviewBand(t *testing.T) {
	g := globalWith(t, attr("PERFORMANCE", record.KindString, "Tues at 7pm"))
	e := NewEngine()
	e.AcceptThreshold = 0.99 // force review band
	e.NewThreshold = 0.10
	ss := &schema.SourceSchema{Source: "s", Attrs: []*schema.Attribute{
		attr("Performance Times", record.KindString, "Tues at 7pm"),
	}}
	rep := e.MatchSource(ss, g)
	review, err := e.Integrate(rep, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(review) != 1 {
		t.Fatalf("review = %d", len(review))
	}
}

func TestSuggestionsSortedTopK(t *testing.T) {
	g := globalWith(t,
		attr("A_ONE", record.KindString, "x"),
		attr("A_TWO", record.KindString, "y"),
		attr("A_THREE", record.KindString, "z"),
		attr("A_FOUR", record.KindString, "w"),
	)
	e := NewEngine()
	e.TopK = 2
	rep := e.MatchSource(&schema.SourceSchema{Source: "s", Attrs: []*schema.Attribute{
		attr("a one", record.KindString, "x"),
	}}, g)
	sugg := rep.Matches[0].Suggestions
	if len(sugg) != 2 {
		t.Fatalf("topk = %d", len(sugg))
	}
	if sugg[0].Score < sugg[1].Score {
		t.Error("suggestions not sorted")
	}
	if sugg[0].Target != "A_ONE" {
		t.Errorf("best = %+v", sugg[0])
	}
}

func TestFormatReport(t *testing.T) {
	g := globalWith(t, attr("SHOW_NAME", record.KindString, "Matilda"))
	rep := NewEngine().MatchSource(&schema.SourceSchema{Source: "ft1", Attrs: []*schema.Attribute{
		attr("Show Name", record.KindString, "Matilda"),
		attr("Obscure Field", record.KindString, "zzz"),
	}}, g)
	out := rep.FormatReport()
	for _, want := range []string{"SOURCE ATTRIBUTE", "SHOW_NAME", "accept", "no counterpart"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestEmptySourceAttrBest(t *testing.T) {
	var m AttrMatch
	if b := m.Best(); b.Target != "" || b.Score != 0 {
		t.Errorf("zero Best = %+v", b)
	}
}

// referenceValueScore is ValueMatcher.Score as it stood before attributes
// memoized their value signature: both sample lists normalized into sets and
// every sample parsed, again for every attribute pair.
func referenceValueScore(src, dst *schema.Attribute) float64 {
	if len(src.Samples) == 0 || len(dst.Samples) == 0 {
		return 0
	}
	normalizeAll := func(vals []string) []string {
		out := make([]string, len(vals))
		for i, v := range vals {
			out[i] = textutil.Normalize(v)
		}
		return out
	}
	numericRange := func(vals []string) (lo, hi float64, ok bool) {
		n := 0
		for _, s := range vals {
			s = strings.TrimSpace(s)
			var f float64
			if i, err := strconv.ParseInt(s, 10, 64); err == nil {
				f = float64(i)
			} else if f, err = strconv.ParseFloat(s, 64); err != nil {
				continue
			}
			if n == 0 || f < lo {
				lo = f
			}
			if n == 0 || f > hi {
				hi = f
			}
			n++
		}
		return lo, hi, n > 0 && n*2 >= len(vals)
	}
	set := similarity.JaccardStrings(normalizeAll(src.Samples), normalizeAll(dst.Samples))
	amin, amax, aok := numericRange(src.Samples)
	bmin, bmax, bok := numericRange(dst.Samples)
	if !aok || !bok {
		return set
	}
	lo, hi := math.Max(amin, bmin), math.Min(amax, bmax)
	rng := 0.0
	if hi >= lo {
		rng = 1
		if span := math.Max(amax-amin, bmax-bmin); span != 0 {
			rng = (hi - lo) / span
		}
	}
	return math.Max(rng, set)
}

// Every source attribute against every global attribute while twenty
// generated sources integrate, signatures going stale as samples merge in.
func TestValueMatcherMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		engine, global := NewEngine(), schema.NewGlobal()
		scored := 0
		for _, src := range datagen.GenerateFTables(datagen.FTablesConfig{Sources: 20, Seed: seed}) {
			ss := schema.FromSource(src)
			for _, a := range ss.Attrs {
				for _, g := range global.Attributes() {
					got, want := ValueMatcher{}.Score(a, g), referenceValueScore(a, g)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("seed %d: %s.%s against %s = %v, reference %v", seed, src.Name, a.Name, g.Name, got, want)
					}
					scored++
				}
			}
			review, err := engine.Integrate(engine.MatchSource(ss, global), global)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range review {
				global.AddAttribute(m.Attr, src.Name)
			}
		}
		if scored < 1000 {
			t.Fatalf("seed %d: only %d attribute pairs scored", seed, scored)
		}
	}
}

func TestValueMatcherWarmScoreAllocatesNothing(t *testing.T) {
	a := attr("price", record.KindInt, "27", "45", "89", "120", "n/a")
	b := attr("cost", record.KindInt, "30", "45", "99", "110")
	ValueMatcher{}.Score(a, b) // derives both signatures
	if n := testing.AllocsPerRun(100, func() { ValueMatcher{}.Score(a, b) }); n != 0 {
		t.Errorf("Score over warm signatures allocates %v times, want 0", n)
	}
}
