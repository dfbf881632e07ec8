package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dedup"
	"repro/internal/extract"
	"repro/internal/fuse"
	"repro/internal/ingest"
	"repro/internal/match"
	"repro/internal/ml"
	"repro/internal/record"
	"repro/internal/schema"
	"repro/internal/store"
)

const batchFragments = 2000

var batchFuse = workload{
	name:    "batch_fuse",
	why:     "the curator's batch job: extract, store insert and index, match, clean, dedup and fuse; serve, client, live and cluster do nothing",
	tailQ:   0.75,
	round:   1,
	warmup:  1,
	memOps:  8,
	topRung: rungCore,
	setup: func(_ context.Context, cfg config, _ any) (runner, error) {
		b := newBatchRunner(cfg)
		if cfg.fragments == 0 && cfg.sources == 0 {
			b.want = batchGolden[strconv.FormatInt(cfg.seed, 10)]
		}
		return b, nil
	},
}

func newBatchRunner(cfg config) *batchRunner {
	return &batchRunner{cfg: core.Config{
		Fragments: orDefault(cfg.fragments, batchFragments), FTSources: orDefault(cfg.sources, ftSources),
		Shards: shards, Seed: cfg.corpus,
	}}
}

// batchGolden pins, per seed, the digest of a pass's outputs. A seed it
// lacks is still checked: every pass of a run must produce the same digest
// and the seed-independent facts in batchRunner.check must hold.
var batchGolden = func() map[string]string {
	var g map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic("benchmark: golden.json: " + err.Error())
	}
	return g
}()

//go:embed golden.json
var goldenJSON []byte

// batchOutputs is what a pass produces that the paper's tables are made of.
type batchOutputs struct {
	FusedRecords int
	TableIII     []core.TypeCount
	TableIV      []fuse.Discussed
	TableVI      map[string]string // the fused "Matilda" record
}

type batchRunner struct {
	cfg    core.Config
	want   string // golden digest, "" when the seed is not pinned
	first  string // digest of the run's first pass
	stages batchStages
}

// pass runs the paper's pipeline on a fresh Tamer and then the Tables I-VI
// queries once. Under a tracer every stage is a span below the pass.
func (b *batchRunner) pass(ctx context.Context, tr *tracer, i int) (*core.Tamer, batchOutputs, time.Duration, error) {
	var out batchOutputs
	root := -1
	stage := func(name string, fn func() error) error {
		if tr == nil {
			return fn()
		}
		id := tr.begin(name, rungCore, i, root)
		defer tr.end(id)
		return fn()
	}
	t0 := time.Now()
	if tr != nil {
		root = tr.begin("op", rungCore, i, -1)
	}
	t := core.New(b.cfg)
	err := stage("ingest_webtext", func() error { return t.IngestWebText(ctx) })
	if err == nil {
		err = stage("import_ftables", func() error { return t.ImportFTables(ctx) })
	}
	if err == nil {
		err = stage("clean_consolidate", func() error { return t.CleanAndConsolidate(ctx) })
	}
	if err == nil {
		err = stage("tables", func() error { return queryTables(ctx, t, &out) })
	}
	if tr != nil {
		tr.end(root)
	}
	return t, out, time.Since(t0), err
}

// queryTables runs the queries behind Tables I to VI.
func queryTables(ctx context.Context, t *core.Tamer, out *batchOutputs) error {
	if _, err := t.InstanceStatsCtx(ctx); err != nil { // Table I
		return err
	}
	if _, err := t.EntityStatsCtx(ctx); err != nil { // Table II
		return err
	}
	var err error
	if out.TableIII, err = t.EntityTypeCounts(ctx); err != nil {
		return err
	}
	if out.TableIV, err = t.TopDiscussed(ctx, 10); err != nil {
		return err
	}
	_, fused, err := t.QueryShow(ctx, "Matilda") // Tables V and VI
	if err != nil {
		return err
	}
	out.TableVI = make(map[string]string, fused.Len())
	for _, f := range fused.Fields() {
		out.TableVI[f.Name] = f.Value.Str()
	}
	out.FusedRecords = len(t.FusedRecords())
	return nil
}

// check fails a pass whose outputs are wrong: against the seed's golden
// digest, against the run's first pass, and against the facts no seed changes.
func (b *batchRunner) check(out batchOutputs) error {
	d, err := digest(out)
	if err != nil {
		return err
	}
	got := fmt.Sprintf("%016x", d)
	if b.first == "" {
		b.first = got
	}
	switch {
	case b.want != "" && got != b.want:
		return fmt.Errorf("pass digest %s differs from the %s golden.json pins for this seed", got, b.want)
	case got != b.first:
		return fmt.Errorf("pass digest %s differs from the first pass's %s", got, b.first)
	case out.TableVI["THEATER"] != datagen.MatildaFacts.Theater || out.TableVI["TEXT_FEED"] != datagen.MatildaFeed:
		return fmt.Errorf("Table VI Matilda record is not the paper's: %v", out.TableVI)
	case len(out.TableIV) == 0 || out.TableIV[0].Name != extract.TableIVShows[0]:
		return fmt.Errorf("Table IV does not start with %q: %v", extract.TableIVShows[0], out.TableIV)
	case len(out.TableIII) == 0 || out.FusedRecords == 0:
		return fmt.Errorf("empty Table III or fused view")
	}
	return nil
}

func (b *batchRunner) op(ctx context.Context, i int) (time.Duration, error) {
	_, out, d, err := b.pass(ctx, nil, i)
	if err == nil {
		err = b.check(out)
	}
	// Collect the pass's garbage outside the timed part, so that one pass
	// does not pay for the one before it.
	runtime.GC()
	return d, err
}

func (b *batchRunner) tracedOp(ctx context.Context, tr *tracer, i int) error {
	t, out, _, err := b.pass(ctx, tr, i)
	if err != nil {
		return err
	}
	if err := b.check(out); err != nil {
		return err
	}
	b.stages.replay(t, b.cfg)
	runtime.GC()
	return nil
}

func (b *batchRunner) finish(context.Context) error { return nil }
func (b *batchRunner) close() error                 { return nil }

// batchStages collects, pass by pass, the replays of the calls inside the
// pipeline's stages: each one is run again on the inputs the pass had, from
// the benchmark's side of the public functions, and timed.
type batchStages struct {
	ms     map[string][]float64
	counts map[string]float64 // the same in every pass
}

func (s *batchStages) time(name string, fn func()) {
	t0 := time.Now()
	fn()
	if s.ms == nil {
		s.ms = map[string][]float64{}
	}
	s.ms[name] = append(s.ms[name], ms(time.Since(t0)))
}

func (s *batchStages) replay(t *core.Tamer, cfg core.Config) {
	s.counts = map[string]float64{}

	// extract and store: generate, parse, and insert into a fresh sharded
	// pair with the pipeline's 1+8 indexes and text index.
	var frags []datagen.Fragment
	s.time("datagen.webtext", func() {
		frags = datagen.GenerateWebText(datagen.WebTextConfig{Fragments: cfg.Fragments, Seed: cfg.Seed, Gazetteer: t.Parser.Gazetteer()})
	})
	var docs [][]*store.Doc // per fragment: the instance doc, then its entity docs
	entities := 0
	s.time("extract.parse", func() {
		docs = make([][]*store.Doc, len(frags))
		for i, f := range frags {
			res := t.Parser.Parse(f.Text)
			docs[i] = append([]*store.Doc{res.InstanceDoc(f.URL)}, res.EntityDocs(f.URL)...)
			entities += len(docs[i]) - 1
		}
	})
	s.counts["extract.entities_per_fragment"] = float64(entities) / float64(len(frags))
	instances := store.NewSharded("dt.instance", "source_url", cfg.Shards, 0)
	ents := store.NewSharded("dt.entity", "name", cfg.Shards, 0)
	createIndexes(instances, ents)
	s.time("store.insert", func() {
		for _, d := range docs {
			instances.Insert(d[0])
			for _, e := range d[1:] {
				ents.Insert(e)
			}
		}
	})
	s.counts["store.docs_inserted"] = float64(len(frags) + entities)

	// match: MatchSource and Integrate over the sources, into a fresh global
	// schema. The pipeline sends review-band matches to its expert pool; the
	// replay adds them as new attributes, which keeps the schema growing the
	// same way without the experts' cost.
	var sources []*ingest.Source
	s.time("datagen.ftables", func() {
		sources = datagen.GenerateFTables(datagen.FTablesConfig{Sources: cfg.FTSources, Seed: cfg.Seed})
	})
	reviewed := 0
	s.time("match.match_source", func() {
		engine, global := match.NewEngine(), schema.NewGlobal()
		for _, src := range sources {
			rep := engine.MatchSource(schema.FromSource(src), global)
			review, err := engine.Integrate(rep, global)
			if err != nil {
				panic("benchmark: match replay: " + err.Error())
			}
			for _, m := range review {
				global.AddAttribute(m.Attr, src.Name)
			}
			reviewed += len(review)
		}
	})
	s.counts["match.attrs_reviewed"] = float64(reviewed)

	// clean and dedup, on the pass's own registry and global schema.
	var translated []*record.Record
	for _, src := range t.Registry.Sources() {
		for _, r := range src.Records {
			translated = append(translated, t.Global.Translate(r))
		}
	}
	s.time("clean.apply_all", func() { t.Cleaner.ApplyAll(translated) })
	var matcher *dedup.Matcher
	s.time("dedup.train", func() { matcher = trainMatcher(cfg.Seed) })
	blocker := dedup.PrefixBlocker("SHOW_NAME", 4)
	pairs := dedup.CandidatePairs(translated, blocker, 0)
	merges := 0
	for _, p := range pairs {
		if matcher.Match(translated[p.I], translated[p.J]) {
			merges++
		}
	}
	s.counts["dedup.candidate_pairs"] = float64(len(pairs))
	if len(pairs) > 0 {
		s.counts["dedup.merges_per_pair"] = float64(merges) / float64(len(pairs))
	}
	var clusters []dedup.Cluster
	s.time("dedup.run", func() {
		clusters = (&dedup.Deduper{Blocker: blocker, Matcher: matcher}).Run(translated)
	})
	s.counts["fuse.records_out"] = float64(len(clusters))
	s.counts["fragments"] = float64(len(frags))
}

// createIndexes builds the index set core gives the two text namespaces.
func createIndexes(instances, entities *store.Sharded) {
	instances.EnsureIndex("source_url_1", "source_url", store.HashIndex)
	instances.EnsureTextIndex("text")
	entities.EnsureIndex("name_1", "name", store.BTreeIndex)
	for _, ix := range [][2]string{
		{"type_1", "type"}, {"source_url_1", "source_url"}, {"price_1", "attributes.price"},
		{"gross_1", "attributes.gross"}, {"date_1", "attributes.date"},
		{"schedule_1", "attributes.schedule"}, {"award_1", "attributes.award_winning"},
	} {
		entities.EnsureIndex(ix[0], ix[1], store.HashIndex)
	}
}

// trainMatcher trains the Section IV classifier the way core does.
func trainMatcher(seed int64) *dedup.Matcher {
	pairs := datagen.GeneratePairs(datagen.PairsConfig{Type: extract.Movie, N: 600, Seed: seed + 17})
	for i, p := range pairs {
		a, b := p.A.Clone(), p.B.Clone()
		a.Rename("name", "SHOW_NAME")
		b.Rename("name", "SHOW_NAME")
		pairs[i] = dedup.LabeledPair{A: a, B: b, Match: p.Match}
	}
	return dedup.TrainMatcher(pairs, dedup.Featurizer{Attrs: []string{"name", "SHOW_NAME", "city"}}, ml.NaiveBayesTrainer(5))
}

func (b *batchRunner) layers(tr *tracer) map[string]float64 {
	s := &b.stages
	v := map[string]float64{
		"core.ingest_webtext_ms":    tr.p50("ingest_webtext", rungCore),
		"core.import_ftables_ms":    tr.p50("import_ftables", rungCore),
		"core.clean_consolidate_ms": tr.p50("clean_consolidate", rungCore),
		"core.tables_ms":            tr.p50("tables", rungCore),
		"datagen.webtext_ms":        median(s.ms["datagen.webtext"]),
		"datagen.ftables_ms":        median(s.ms["datagen.ftables"]),
		"match.match_source_ms":     median(s.ms["match.match_source"]),
		"clean.apply_all_ms":        median(s.ms["clean.apply_all"]),
		"dedup.train_ms":            median(s.ms["dedup.train"]),
		"dedup.run_ms":              median(s.ms["dedup.run"]),
	}
	if frags := s.counts["fragments"]; frags > 0 {
		v["extract.parse_us_per_fragment"] = median(s.ms["extract.parse"]) * 1e3 / frags
		v["store.insert_us_per_doc"] = median(s.ms["store.insert"]) * 1e3 / s.counts["store.docs_inserted"]
	}
	for name, n := range s.counts {
		if name != "fragments" {
			v[name] = n
		}
	}
	return v
}

// writeGolden prints golden.json: the digest of one pass for each pinned seed.
func writeGolden(ctx context.Context, w io.Writer) error {
	g := map[string]string{}
	for seed := int64(1); seed <= 32; seed++ {
		b := newBatchRunner(config{corpus: corpusSeed(seed, ftSources)})
		_, out, _, err := b.pass(ctx, nil, 0)
		if err == nil {
			err = b.check(out)
		}
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		g[strconv.FormatInt(seed, 10)] = b.first
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
