package datagen

import (
	"strings"
	"testing"

	"repro/internal/dedup"
	"repro/internal/extract"
	"repro/internal/ml"
	"repro/internal/record"
)

func TestGenerateWebTextDeterministic(t *testing.T) {
	a := GenerateWebText(WebTextConfig{Fragments: 50, Seed: 1})
	b := GenerateWebText(WebTextConfig{Fragments: 50, Seed: 1})
	if len(a) != 50 || len(b) != 50 {
		t.Fatalf("lens = %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d", i)
		}
	}
	c := GenerateWebText(WebTextConfig{Fragments: 50, Seed: 2})
	same := 0
	for i := range a {
		if a[i].Text == c[i].Text {
			same++
		}
	}
	if same > 25 {
		t.Errorf("different seeds too similar: %d/50 identical", same)
	}
}

func TestWebTextFirstFragmentIsMatilda(t *testing.T) {
	frags := GenerateWebText(WebTextConfig{Fragments: 3, Seed: 9})
	if frags[0].Text != MatildaFeed {
		t.Errorf("fragment 0 = %q", frags[0].Text)
	}
	if !strings.Contains(frags[0].Text, "960,998") {
		t.Error("Matilda feed missing gross")
	}
}

func TestWebTextMentionsParseable(t *testing.T) {
	frags := GenerateWebText(WebTextConfig{Fragments: 200, Seed: 3})
	p := extract.NewParser()
	totalMentions := 0
	for _, f := range frags {
		totalMentions += len(p.Parse(f.Text).Mentions)
	}
	// Fragments average multiple mentions; require a healthy yield.
	if totalMentions < 400 {
		t.Errorf("mentions = %d over 200 fragments", totalMentions)
	}
}

func TestWebTextDiscussionRanking(t *testing.T) {
	frags := GenerateWebText(WebTextConfig{Fragments: 3000, Seed: 4})
	counts := map[string]int{}
	for _, f := range frags {
		lower := strings.ToLower(f.Text)
		for _, show := range extract.TableIVShows {
			counts[show] += strings.Count(lower, strings.ToLower(show))
		}
	}
	// The top Table IV show must out-mention the bottom one decisively.
	top := counts[extract.TableIVShows[0]]
	bottom := counts[extract.TableIVShows[len(extract.TableIVShows)-1]]
	if top <= bottom*2 {
		t.Errorf("ranking signal weak: top=%d bottom=%d", top, bottom)
	}
}

func TestGenerateFactsMatildaPinned(t *testing.T) {
	facts := GenerateFacts(1)
	if facts[0] != MatildaFacts {
		t.Error("facts[0] must be MatildaFacts")
	}
	if facts[0].Price != 27 || facts[0].First != "3/4/2013" {
		t.Errorf("Matilda facts drifted: %+v", facts[0])
	}
	if len(facts) < 15 {
		t.Errorf("facts = %d", len(facts))
	}
	// Determinism.
	again := GenerateFacts(1)
	for i := range facts {
		if facts[i] != again[i] {
			t.Fatalf("nondeterministic facts at %d", i)
		}
	}
}

func TestGenerateFTablesShape(t *testing.T) {
	sources := GenerateFTables(FTablesConfig{Sources: 20, Seed: 1})
	if len(sources) != 20 {
		t.Fatalf("sources = %d", len(sources))
	}
	for _, s := range sources {
		attrs := s.Attributes()
		if len(attrs) < 5 || len(attrs) > 20 {
			t.Errorf("%s attrs = %d, want 5-20", s.Name, len(attrs))
		}
		if len(s.Records) < 10 || len(s.Records) > 100 {
			t.Errorf("%s rows = %d, want 10-100", s.Name, len(s.Records))
		}
	}
}

func TestGenerateFTablesMatildaRow(t *testing.T) {
	sources := GenerateFTables(FTablesConfig{Sources: 20, Seed: 1})
	ft0 := sources[0]
	// The pinned paper-exact row is always first in ft00.
	matilda := ft0.Records[0]
	if matilda.GetString("show_name") != "Matilda" {
		t.Fatalf("ft00 first row = %v", matilda)
	}
	joined := ""
	for _, f := range matilda.Fields() {
		joined += f.Value.Str() + "|"
	}
	for _, want := range []string{"Shubert 225 W. 44th St", "$27", "3/4/2013", "Tues at 7pm"} {
		if !strings.Contains(joined, want) {
			t.Errorf("Matilda row missing %q: %s", want, joined)
		}
	}
}

func TestGenerateFTablesHeterogeneousNames(t *testing.T) {
	sources := GenerateFTables(FTablesConfig{Sources: 20, Seed: 1})
	variants := map[string]bool{}
	for _, s := range sources {
		for _, a := range s.Attributes() {
			n := record.NormalizeName(a)
			if strings.Contains(n, "show") || strings.Contains(n, "title") || strings.Contains(n, "production") {
				variants[n] = true
			}
		}
	}
	if len(variants) < 2 {
		t.Errorf("show-name variants = %v, want heterogeneity", variants)
	}
}

func TestGeneratePairsBalanced(t *testing.T) {
	pairs := GeneratePairs(PairsConfig{Type: extract.Movie, N: 200, Seed: 1})
	if len(pairs) != 200 {
		t.Fatalf("pairs = %d", len(pairs))
	}
	pos := 0
	for _, p := range pairs {
		if p.Match {
			pos++
		}
		if p.A.GetString("name") == "" || p.B.GetString("name") == "" {
			t.Fatal("pair with empty name")
		}
	}
	if pos != 100 {
		t.Errorf("positives = %d", pos)
	}
}

func TestGeneratePairsClassifierInPaperBand(t *testing.T) {
	// The headline check: NB over similarity features, 10-fold CV, should
	// land near the paper's 89/90 — at least in the 80-97 band.
	pairs := GeneratePairs(PairsConfig{Type: extract.Person, N: 600, Seed: 7})
	fz := dedup.Featurizer{Attrs: []string{"name", "city"}}
	examples := make([]ml.Example, len(pairs))
	for i, p := range pairs {
		examples[i] = ml.Example{Features: fz.Features(p.A, p.B), Label: p.Match}
	}
	res := ml.CrossValidate(ml.NaiveBayesTrainer(5), examples, 10, 1)
	if res.MeanPrecision() < 0.80 || res.MeanPrecision() > 0.99 {
		t.Errorf("precision = %f outside band: %s", res.MeanPrecision(), res)
	}
	if res.MeanRecall() < 0.80 || res.MeanRecall() > 0.99 {
		t.Errorf("recall = %f outside band: %s", res.MeanRecall(), res)
	}
}

func TestGeneratePairsUnknownType(t *testing.T) {
	if got := GeneratePairs(PairsConfig{Type: extract.URL, N: 10, Seed: 1}); got != nil {
		t.Errorf("URL pairs = %v (no gazetteer names)", got)
	}
}
