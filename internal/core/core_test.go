package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/dterr"
	"repro/internal/datagen"
	"repro/internal/dedup"
	"repro/internal/extract"
	"repro/internal/fuse"
	"repro/internal/match"
	"repro/internal/ml"
	"repro/internal/record"
)

// smallTamer runs the full pipeline at test scale, shared across tests.
func smallTamer(t *testing.T) *Tamer {
	t.Helper()
	tm := New(Config{Fragments: 300, FTSources: 8, Shards: 2, Seed: 5})
	if err := tm.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return tm
}

var cached *Tamer

func sharedTamer(t *testing.T) *Tamer {
	t.Helper()
	if cached == nil {
		cached = smallTamer(t)
	}
	return cached
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Fragments == 0 || cfg.FTSources != 20 || cfg.ExtentSize != 2<<20 {
		t.Errorf("defaults = %+v", cfg)
	}
}

func TestPipelineStats(t *testing.T) {
	tm := sharedTamer(t)
	inst := tm.InstanceStats()
	if inst.NS != "dt.instance" || inst.Count != 300 {
		t.Errorf("instance stats = %+v", inst)
	}
	if inst.NIndexes != 1 {
		t.Errorf("instance nindexes = %d, want 1 (Table I)", inst.NIndexes)
	}
	ent := tm.EntityStats()
	if ent.NS != "dt.entity" {
		t.Errorf("entity ns = %q", ent.NS)
	}
	if ent.NIndexes != 8 {
		t.Errorf("entity nindexes = %d, want 8 (Table II)", ent.NIndexes)
	}
	if ent.Count <= inst.Count {
		t.Errorf("entities (%d) should outnumber instances (%d)", ent.Count, inst.Count)
	}
	if inst.NumExtents < 1 || ent.NumExtents < 1 {
		t.Error("extent accounting empty")
	}
	if ent.TotalIndexSize <= inst.TotalIndexSize {
		t.Errorf("8-index namespace should carry more index bytes: %d vs %d",
			ent.TotalIndexSize, inst.TotalIndexSize)
	}
}

func TestEntityTypeCountsShape(t *testing.T) {
	tm := sharedTamer(t)
	counts, err := tm.EntityTypeCounts(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) < 10 {
		t.Fatalf("type counts = %d rows", len(counts))
	}
	for i := 1; i < len(counts); i++ {
		if counts[i-1].Count < counts[i].Count {
			t.Errorf("not descending at %d", i)
		}
	}
	seen := map[string]bool{}
	for _, c := range counts {
		seen[c.Type] = true
	}
	for _, want := range []string{"Person", "Company", "Movie", "City"} {
		if !seen[want] {
			t.Errorf("missing type %s", want)
		}
	}
}

func TestTopDiscussedAwardOnly(t *testing.T) {
	tm := sharedTamer(t)
	top, err := tm.TopDiscussed(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) == 0 {
		t.Fatal("no discussed shows")
	}
	award := map[string]bool{}
	for _, s := range extract.TableIVShows {
		award[strings.ToLower(s)] = true
	}
	for _, d := range top {
		if !award[strings.ToLower(d.Name)] {
			t.Errorf("non-award show in ranking: %s", d.Name)
		}
	}
	// The heaviest-weighted show should rank first at this scale.
	if !strings.EqualFold(top[0].Name, extract.TableIVShows[0]) {
		t.Errorf("top = %s, want %s", top[0].Name, extract.TableIVShows[0])
	}
}

func TestTableVThenTableVI(t *testing.T) {
	tm := sharedTamer(t)
	web, err := tm.QueryWebText(context.Background(), "Matilda")
	if err != nil {
		t.Fatal(err)
	}
	if web.GetString("SHOW_NAME") != "Matilda" {
		t.Fatalf("web record = %v", web)
	}
	// The surfaced feed must carry box-office detail (the paper's own feed
	// with gross 960,998 scores highest unless a generated fragment is even
	// richer, which is an equally valid "most informative" result).
	if !strings.Contains(strings.ToLower(web.GetString("TEXT_FEED")), "grossed") {
		t.Errorf("text feed = %q", web.GetString("TEXT_FEED"))
	}
	for _, absent := range []string{"THEATER", "CHEAPEST_PRICE", "FIRST"} {
		if web.Has(absent) {
			t.Errorf("Table V must not contain %s", absent)
		}
	}

	fused, err := tm.QueryFused(context.Background(), "Matilda")
	if err != nil {
		t.Fatal(err)
	}
	for _, attr := range fuse.TableVIOrder {
		if !fused.Has(attr) {
			t.Errorf("Table VI missing %s; record=%v", attr, fused)
		}
	}
	if !strings.Contains(fused.GetString("THEATER"), "Shubert") {
		t.Errorf("theater = %q", fused.GetString("THEATER"))
	}
	if got := fused.GetString("CHEAPEST_PRICE"); got != "$27" {
		t.Errorf("price = %q", got)
	}
	// FIRST is normalized to ISO by the cleaner.
	if got := fused.GetString("FIRST"); got != "2013-03-04" && got != "3/4/2013" {
		t.Errorf("first = %q", got)
	}
}

func TestMatchReportsFig2Fig3(t *testing.T) {
	tm := sharedTamer(t)
	reps := tm.MatchReports()
	if len(reps) != tm.Config().FTSources {
		t.Fatalf("reports = %d", len(reps))
	}
	// Fig. 2: the first source meets an empty global schema — all alerts.
	first := reps[0]
	if len(first.Alerts) != len(first.Matches) {
		t.Errorf("first source: %d alerts for %d attrs", len(first.Alerts), len(first.Matches))
	}
	// Later sources should find matches (fewer alerts than attributes).
	later := reps[len(reps)-1]
	if len(later.Alerts) >= len(later.Matches) {
		t.Errorf("last source still all-new: %d alerts / %d attrs", len(later.Alerts), len(later.Matches))
	}
	// Scores populated and within range.
	for _, m := range later.Matches {
		for _, s := range m.Suggestions {
			if s.Score < 0 || s.Score > 1 {
				t.Errorf("score out of range: %f", s.Score)
			}
		}
	}
}

func TestGlobalSchemaGrowth(t *testing.T) {
	tm := sharedTamer(t)
	if tm.Global.Len() < 5 {
		t.Errorf("global schema = %d attrs", tm.Global.Len())
	}
	// Core demo attributes must exist.
	for _, want := range []string{"SHOW_NAME", "THEATER", "PERFORMANCE", "CHEAPEST_PRICE", "FIRST"} {
		if _, ok := tm.Global.Attribute(want); !ok {
			t.Errorf("global schema missing %s (%s)", want, tm.Global)
		}
	}
	// The 20 sources' show-name variants should have consolidated, not
	// ballooned the schema: well under the raw attribute count.
	raw := 0
	for _, src := range tm.Registry.Sources() {
		raw += len(src.Attributes())
	}
	if tm.Global.Len() >= raw/2 {
		t.Errorf("schema did not consolidate: %d global vs %d raw", tm.Global.Len(), raw)
	}
}

func TestFusedRecordsConsolidated(t *testing.T) {
	tm := sharedTamer(t)
	fusedRecs := tm.FusedRecords()
	if len(fusedRecs) == 0 {
		t.Fatal("no fused records")
	}
	// Far fewer consolidated records than raw rows.
	raw := 0
	for _, src := range tm.Registry.Sources() {
		raw += len(src.Records)
	}
	if len(fusedRecs) >= raw {
		t.Errorf("no consolidation: %d fused vs %d raw", len(fusedRecs), raw)
	}
	// Matilda present exactly once.
	matildas := tm.fusedSnapshot().lookup("Matilda")
	if len(matildas) != 1 {
		t.Errorf("matilda consolidated records = %d", len(matildas))
	}
}

// TestFusedViewLookupNormalized: a view finds a show's records under any
// spelling that normalizes alike, and only those.
func TestFusedViewLookupNormalized(t *testing.T) {
	var clusters []fusedCluster
	for i, show := range []string{"Matilda", "The  MATILDA", "Wicked", "matilda"} {
		r := record.New()
		r.Set("SHOW_NAME", record.String(show))
		clusters = append(clusters, fusedCluster{members: []member{{rec: r, pos: i}}, record: r, show: show})
	}
	v := newFusedView(clusters)
	got := v.lookup(" MATILDA ")
	if len(got) != 2 || got[0].GetString("SHOW_NAME") != "Matilda" || got[1].GetString("SHOW_NAME") != "matilda" {
		t.Errorf("lookup = %v, want Matilda then matilda", got)
	}
	if got := v.lookup("Cats"); len(got) != 0 {
		t.Errorf("lookup of an absent show = %v", got)
	}
}

func TestStagesReported(t *testing.T) {
	tm := sharedTamer(t)
	stages := tm.Stages()
	if len(stages) < 3 {
		t.Fatalf("stages = %+v", stages)
	}
	names := map[string]bool{}
	for _, s := range stages {
		names[s.Stage] = true
		if s.Duration < 0 {
			t.Errorf("negative duration: %+v", s)
		}
	}
	for _, want := range []string{"ingest-webtext", "import-ftables", "clean-consolidate"} {
		if !names[want] {
			t.Errorf("missing stage %s", want)
		}
	}
}

func TestClassifierCVPaperBand(t *testing.T) {
	tm := sharedTamer(t)
	res, err := tm.ClassifierCV(context.Background(), extract.Person, 400)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Folds) != 10 {
		t.Fatalf("folds = %d", len(res.Folds))
	}
	if res.MeanPrecision() < 0.80 || res.MeanRecall() < 0.80 {
		t.Errorf("classifier below band: %s", res)
	}
}

// TestClassifierCVMatchesFeatureMaps: cross-validating on the pairs'
// feature table gives each fold the confusion matrix the former body gave,
// which featurized every pair into a map and split the maps per fold, for
// every pair type at seeds 1 and 2.
func TestClassifierCVMatchesFeatureMaps(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		tm := New(Config{Seed: seed})
		for _, typ := range datagen.PairTypes {
			got, err := tm.ClassifierCV(context.Background(), typ, 600)
			if err != nil {
				t.Fatal(err)
			}
			pairs := datagen.GeneratePairs(tm.pairsConfig(typ, 600, seed+int64(len(typ))))
			fz := dedup.Featurizer{Attrs: []string{"name", "city"}}
			examples := make([]ml.Example, len(pairs))
			for i, p := range pairs {
				examples[i] = ml.Example{Features: fz.Features(p.A, p.B), Label: p.Match}
			}
			if want := ml.CrossValidate(ml.NaiveBayesTrainer(5), examples, 10, seed); !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d, %s: %v\nwant %v", seed, typ, got, want)
			}
		}
	}
}

// The labeled pairs drawn from the parser's gazetteer, after the pipeline
// has parsed with it, are the pairs a fresh default gazetteer gives, drawn
// either first or second: the training pairs and each type's
// cross-validation pairs, at seeds 1 to 3.
func TestPairsFromTheParsersGazetteerMatchTheDefault(t *testing.T) {
	tm := sharedTamer(t)
	for seed := int64(1); seed <= 3; seed++ {
		configs := []datagen.PairsConfig{tm.pairsConfig(extract.Movie, 600, seed+17)}
		for _, typ := range datagen.PairTypes {
			configs = append(configs, tm.pairsConfig(typ, 400, seed+int64(len(typ))))
		}
		for _, cfg := range configs {
			shared := datagen.GeneratePairs(cfg)
			fresh := cfg
			fresh.Gazetteer = nil
			def := datagen.GeneratePairs(fresh)
			if len(shared) == 0 || !reflect.DeepEqual(shared, def) {
				t.Fatalf("%s pairs at seed %d: %d from the parser's gazetteer differ from %d of a default one", cfg.Type, cfg.Seed, len(shared), len(def))
			}
			if again := datagen.GeneratePairs(cfg); !reflect.DeepEqual(again, def) {
				t.Fatalf("%s pairs at seed %d: the parser's gazetteer gives other pairs after a default one drew", cfg.Type, cfg.Seed)
			}
		}
	}
}

func TestQueryFusedUnknownShowFallsBack(t *testing.T) {
	tm := sharedTamer(t)
	r, err := tm.QueryFused(context.Background(), "No Such Show")
	if err != nil {
		t.Fatal(err)
	}
	if r.GetString("SHOW_NAME") != "No Such Show" {
		t.Errorf("fallback record = %v", r)
	}
	if r.Has("THEATER") {
		t.Error("unknown show should not be enriched")
	}
}

func TestExpertPoolExercised(t *testing.T) {
	tm := sharedTamer(t)
	total := 0
	for _, e := range tm.Experts.Experts() {
		total += tm.Experts.Asked(e.Name())
	}
	if total == 0 {
		t.Skip("no review-band matches at this scale; expert path covered in expert tests")
	}
	// Every attribute the experts were asked about now translates onto a
	// global attribute, either the one they confirmed or one they added.
	reviewed := 0
	for _, rep := range tm.matchReports {
		for _, m := range rep.Matches {
			if m.Decision != match.DecisionReview {
				continue
			}
			reviewed++
			probe := record.New()
			probe.Source = rep.Source
			probe.Set(m.Attr.Name, record.String("x"))
			name := tm.Global.Translate(probe).Fields()[0].Name
			if _, ok := tm.Global.Attribute(name); !ok {
				t.Errorf("%s.%s translates to %q, not a global attribute", rep.Source, m.Attr.Name, name)
			}
		}
	}
	if reviewed == 0 {
		t.Error("experts were asked, but no match report holds a review-band match")
	}
}

func TestRunCancelledContextStopsEarly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tm := New(Config{Fragments: 500, FTSources: 4, Seed: 9})
	err := tm.Run(ctx)
	if err == nil {
		t.Fatal("Run with cancelled ctx should fail")
	}
	if !errors.Is(err, context.Canceled) || !errors.Is(err, dterr.ErrCanceled) {
		t.Errorf("error = %v, want canceled classification", err)
	}
	// Nothing was inserted: the parse pool stopped before the store loads.
	if got := tm.InstanceStats().Count; got != 0 {
		t.Errorf("instances after cancelled run = %d, want 0", got)
	}
}

func TestApplyFragmentsCancelMidBatch(t *testing.T) {
	tm := New(Config{Fragments: 10, FTSources: 2, Seed: 9})
	frags := datagen.GenerateWebText(datagen.WebTextConfig{
		Fragments: 300, Seed: 9, Gazetteer: tm.Parser.Gazetteer(),
	})
	// Cancel once the workers have started: every worker checks the
	// context per fragment, so the pool must wind down and report the
	// cancellation instead of inserting a full batch.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := tm.ApplyFragments(ctx, frags, 4)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ApplyFragments with cancelled ctx = %v", err)
	}
	if got := tm.InstanceStats().Count; got != 0 {
		t.Errorf("cancelled apply inserted %d instances", got)
	}
}

func TestQueryMethodsHonorCancelledContext(t *testing.T) {
	tm := sharedTamer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tm.TopDiscussed(ctx, 5); !errors.Is(err, dterr.ErrCanceled) {
		t.Errorf("TopDiscussed = %v", err)
	}
	if _, err := tm.QueryFused(ctx, "Matilda"); !errors.Is(err, dterr.ErrCanceled) {
		t.Errorf("QueryFused = %v", err)
	}
	if _, err := tm.EntityTypeCounts(ctx); !errors.Is(err, dterr.ErrCanceled) {
		t.Errorf("EntityTypeCounts = %v", err)
	}
	if _, err := tm.FindEntities(ctx, "type = Movie"); !errors.Is(err, dterr.ErrCanceled) {
		t.Errorf("FindEntities = %v", err)
	}
}

func TestFindEntitiesInvalidQuery(t *testing.T) {
	tm := sharedTamer(t)
	if _, err := tm.FindEntities(context.Background(), "==="); !errors.Is(err, dterr.ErrInvalidArgument) {
		t.Errorf("malformed query = %v, want ErrInvalidArgument", err)
	}
	if _, err := tm.FindEntities(context.Background(), ""); !errors.Is(err, dterr.ErrInvalidArgument) {
		t.Errorf("empty query = %v, want ErrInvalidArgument", err)
	}
}

// A live server accepts a source's mappings again with every batch it
// applies; the schema must take each as the mapping it already holds, not
// grow, and Translate must not move.
func TestApplyRecordsDoesNotGrowMappings(t *testing.T) {
	ctx := context.Background()
	tm := New(Config{Fragments: 50, FTSources: 3, Shards: 2, Seed: 5})
	if err := tm.Run(ctx); err != nil {
		t.Fatal(err)
	}
	batch := func(i int) []*record.Record {
		r := record.New()
		r.Source = "live_feed"
		r.Set("Show Name", record.String(fmt.Sprintf("Live Show %d", i)))
		r.Set("cheapest price", record.String(fmt.Sprintf("$%d", 10+i%90)))
		r.Set("theater", record.String("Shubert Theatre"))
		return []*record.Record{r}
	}
	if _, err := tm.ApplyRecords(ctx, "live_feed", batch(0)); err != nil {
		t.Fatal(err)
	}
	probe := batch(0)[0]
	attrs, translated := tm.Global.Len(), tm.Global.Translate(probe).String()
	if !strings.Contains(translated, "SHOW_NAME") {
		t.Fatalf("probe did not translate onto the global schema: %s", translated)
	}
	for i := 1; i <= 1000; i++ {
		if _, err := tm.ApplyRecords(ctx, "live_feed", batch(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := tm.Global.Len(); got != attrs {
		t.Errorf("global schema grew from %d to %d attributes over 1000 batches of one source", attrs, got)
	}
	if got := tm.Global.Translate(probe).String(); got != translated {
		t.Errorf("translation moved:\n got %s\nwant %s", got, translated)
	}
}
