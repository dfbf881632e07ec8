// Package core orchestrates the extended Data Tamer pipeline of the paper's
// Figure 1: text ingestion through the domain-specific parser into the
// sharded store, bottom-up schema integration of the structured FTABLES
// sources, expert-assisted matching, cleaning, entity consolidation, and
// the final fusion that enriches text query results with structured fields.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/dterr"
	"repro/internal/clean"
	"repro/internal/datagen"
	"repro/internal/dedup"
	"repro/internal/expert"
	"repro/internal/extract"
	"repro/internal/fuse"
	"repro/internal/ingest"
	"repro/internal/match"
	"repro/internal/ml"
	"repro/internal/record"
	"repro/internal/schema"
	"repro/internal/store"
)

// Config sizes a pipeline run. The defaults reproduce the paper's shape at
// 1/1000 scale: 2 MB extents stand in for the 2 GB extents of the paper's
// deployment, so extent arithmetic is preserved.
type Config struct {
	// Fragments is the number of web-text fragments to generate and ingest.
	Fragments int
	// FTSources is the number of structured sources (paper: 20).
	FTSources int
	// Shards is the shard count of the two text namespaces.
	Shards int
	// ExtentSize is the extent size in bytes (default 2 MB).
	ExtentSize int64
	// Seed drives all generators and simulated experts.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Fragments <= 0 {
		c.Fragments = 2000
	}
	if c.FTSources <= 0 {
		c.FTSources = 20
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.ExtentSize <= 0 {
		c.ExtentSize = 2 << 20 // 2 MB = 1/1000 of the paper's 2 GB
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// StageReport times one pipeline stage and counts its outputs.
type StageReport struct {
	Stage    string
	Items    int
	Duration time.Duration
}

// Tamer is a configured pipeline instance. The batch entry points
// (Run and its stages) are not safe to call concurrently with one another,
// though Run itself builds the text and structured sides at once; after a
// Run the incremental hooks in incremental.go and all query methods are
// safe for concurrent use — mu guards the mutable curation state
// (registry, global schema, fused view), while the document stores carry
// their own locks.
type Tamer struct {
	cfg Config

	Parser    *extract.Parser
	Instances *store.Sharded
	Entities  *store.Sharded
	Registry  *ingest.Registry
	Global    *schema.Global
	Matcher   *match.Engine
	Experts   *expert.Pool
	Cleaner   *clean.Cleaner
	Query     *fuse.Engine

	mu           sync.RWMutex
	view         *fusedView     // immutable fused-table snapshot, swapped on refresh
	pending      []member       // translated+cleaned, awaiting consolidation
	arrivals     map[string]int // per source, the position of its next member
	dedupMatcher *dedup.Matcher // Section IV classifier, trained once
	matchReports []*match.Report

	stagesMu sync.Mutex
	stages   []StageReport // in stageOrder

	// dataGen counts every mutation that can change a read result —
	// fragment applies, record applies, consolidation, store swaps,
	// checkpoint restores. The serve tier keys its response cache (and the
	// ETags it hands out) to this value, so bumping here IS the cache
	// invalidation: it must happen on every write path, including the
	// batch-mode ApplyRecords path that bypasses the live ingester.
	dataGen atomic.Uint64
	// storesIndexed says indexStores has run on the current Instances and
	// Entities; replacing them clears it.
	storesIndexed atomic.Bool
}

// New builds a pipeline with the given configuration.
func New(cfg Config) *Tamer {
	cfg = cfg.withDefaults()
	t := &Tamer{
		cfg:       cfg,
		Parser:    extract.NewParser(),
		Instances: store.NewSharded("dt.instance", "source_url", cfg.Shards, cfg.ExtentSize),
		Entities:  store.NewSharded("dt.entity", "name", cfg.Shards, cfg.ExtentSize),
		Registry:  ingest.NewRegistry(),
		Global:    schema.NewGlobal(),
		Matcher:   match.NewEngine(),
		Cleaner: &clean.Cleaner{Rules: []clean.Rule{
			{Attr: "CHEAPEST_PRICE", Transform: clean.CurrencyConvert{From: "EUR", To: "USD", Rate: 1.30}},
			{Attr: "FIRST", Transform: clean.DateTransform{}},
			{Attr: "THEATER", Transform: clean.WhitespaceTransform{}},
			{Attr: "PERFORMANCE", Transform: clean.WhitespaceTransform{}},
			{Attr: "NOTES", Transform: clean.NullStandardize{}},
			{Attr: "DISCOUNT", Transform: clean.NullStandardize{}},
		}},
	}
	t.Experts = expert.NewPool(
		expert.NewSimulated("curator", 0.95, map[string]float64{"schema": 0.97}, cfg.Seed+101),
		expert.NewSimulated("analyst", 0.90, nil, cfg.Seed+102),
		expert.NewSimulated("intern", 0.75, nil, cfg.Seed+103),
	)
	t.Query = &fuse.Engine{Instances: t.Instances, Entities: t.Entities}
	t.view = newFusedView(nil)
	t.arrivals = map[string]int{}
	return t
}

// Config returns the effective (defaulted) configuration.
func (t *Tamer) Config() Config { return t.cfg }

// SetStores replaces both document stores and repoints the query engine at
// them — the cluster entry point, called once after New (before Run or any
// query) with routers whose shard backends live in remote dtnode processes.
// Not safe to call concurrently with pipeline or query activity.
func (t *Tamer) SetStores(instances, entities *store.Sharded) {
	t.Instances = instances
	t.Entities = entities
	t.Query.Instances = instances
	t.Query.Entities = entities
	t.storesIndexed.Store(false)
	t.dataGen.Add(1)
}

// DataGeneration returns the current data generation: a counter bumped
// after every completed mutation (fragment apply, record apply,
// consolidation, restore). Two reads under the same generation observe
// the same data, which is what makes the value usable as a response-cache
// key and ETag component. The converse does not hold — a bump does not
// guarantee the results differ — so a generation change invalidates
// conservatively.
func (t *Tamer) DataGeneration() uint64 { return t.dataGen.Load() }

// RaiseGeneration moves the data generation up to floor when it is below:
// a pipeline recovered from disk starts above every generation an earlier
// process served over the same directory (see live.Open), so that no
// response cached or validated then is taken for one served now.
func (t *Tamer) RaiseGeneration(floor uint64) {
	for {
		gen := t.dataGen.Load()
		if gen >= floor || t.dataGen.CompareAndSwap(gen, floor) {
			return
		}
	}
}

// Stages returns the per-stage reports of the last Run, in pipeline order
// (Fig. 1): ingest-webtext, parse-entities, import-ftables,
// clean-consolidate.
func (t *Tamer) Stages() []StageReport {
	t.stagesMu.Lock()
	defer t.stagesMu.Unlock()
	return slices.Clone(t.stages)
}

// MatchReports returns the schema-matching reports, in integration order
// (the Fig. 2 early-stage report is first).
func (t *Tamer) MatchReports() []*match.Report {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.matchReports
}

// FusedRecords returns the consolidated structured records under global
// attribute names, folding in any pending incremental records first. The
// returned slice is an immutable snapshot; callers must not modify it.
func (t *Tamer) FusedRecords() []*record.Record { return t.fusedSnapshot().records }

// stageOrder is the pipeline order of the stages, in which Stages lists
// them whichever finished first.
var stageOrder = []string{"ingest-webtext", "parse-entities", "import-ftables", "clean-consolidate"}

// stage records one stage's report. Run's two sides call it at once.
func (t *Tamer) stage(name string, items int, start time.Time) {
	t.stagesMu.Lock()
	defer t.stagesMu.Unlock()
	t.stages = append(t.stages, StageReport{Stage: name, Items: items, Duration: time.Since(start)})
	slices.SortStableFunc(t.stages, func(a, b StageReport) int {
		return slices.Index(stageOrder, a.Stage) - slices.Index(stageOrder, b.Stage)
	})
}

// Run executes the full pipeline. Web text and the structured sources reach
// the fused view by separate routes that meet only when a query fuses them,
// so Run builds the two at once: IngestWebText on one goroutine,
// ImportFTables then CleanAndConsolidate on another. It returns after both,
// with the text side's error first. Cancelling ctx stops both sides between
// and, for the parse pool and the expert rounds, inside stages.
func (t *Tamer) Run(ctx context.Context) error {
	var structured error
	done := make(chan struct{})
	go func() {
		defer close(done)
		if structured = t.ImportFTables(ctx); structured == nil {
			structured = t.CleanAndConsolidate(ctx)
		}
	}()
	text := t.IngestWebText(ctx)
	<-done
	if text != nil {
		return text
	}
	return structured
}

// IngestWebText generates the corpus, runs the domain-specific parser, and
// loads both text namespaces with their index sets (1 index on instances,
// 8 on entities — the nindexes of Tables I and II).
func (t *Tamer) IngestWebText(ctx context.Context) error {
	start := time.Now()
	frags := datagen.GenerateWebText(datagen.WebTextConfig{
		Fragments: t.cfg.Fragments,
		Seed:      t.cfg.Seed,
		Gazetteer: t.Parser.Gazetteer(),
	})

	_, entities, err := t.ApplyFragments(ctx, frags, 0)
	if err != nil {
		return err
	}
	t.stage("ingest-webtext", len(frags), start)
	t.stage("parse-entities", entities, start)
	return nil
}

// parsed is one fragment's parse output, ready for store insertion: its
// instance document, then its entity documents, stored documents that
// share one copy of their bytes.
type parsed struct {
	docs []store.Doc
}

// parseFragments runs the domain-specific parser over frags into results,
// which has their length, with a worker pool (the parser is read-only and
// safe for concurrent use). Each worker writes a fragment's documents into
// one reused buffer (Parser.AppendDocs) and adopts them from there.
// workers <= 0 uses one worker per schedulable CPU, as the shard fan-out
// does, so under GOMAXPROCS=1 the load is serial.
// Results keep fragment order so the inserts that follow stay
// deterministic. Cancelling ctx stops every worker at its next fragment
// boundary and the call returns the context error.
func (t *Tamer) parseFragments(ctx context.Context, frags []datagen.Fragment, results []parsed, workers int) error {
	var wg sync.WaitGroup
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(frags) {
		workers = len(frags)
	}
	if workers < 1 {
		workers = 1
	}
	done := ctx.Done()
	errs := make([]error, workers)
	chunk := (len(frags) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(frags) {
			hi = len(frags)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			var buf []byte
			var ends []int
			for i := lo; i < hi; i++ {
				select {
				case <-done:
					return
				default:
				}
				buf, ends = t.Parser.AppendDocs(buf[:0], ends[:0], frags[i].Text, frags[i].URL)
				docs, err := store.AdoptDocs(buf, ends)
				if err != nil {
					errs[w] = dterr.Wrapf(dterr.CodeInternal, err, "core: fragment %s", frags[i].URL)
					return
				}
				results[i] = parsed{docs: docs}
			}
		}(w, lo, hi)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return dterr.FromContext(err)
	}
	return errors.Join(errs...)
}

// indexStores creates the standard index sets: 1 index on dt.instance and
// 8 on dt.entity — the nindexes of Tables I and II — plus the inverted
// text index over dt.instance.text that serves substring queries
// (TextFeeds and friends). The text index is an accelerator outside the
// secondary-index set, so the Table I/II nindexes counts are unchanged.
func (t *Tamer) indexStores(ctx context.Context) error {
	for _, set := range []struct {
		s       *store.Sharded
		indexes []store.IndexSpec
	}{
		{t.Instances, []store.IndexSpec{
			{Name: "source_url_1", Path: "source_url", Kind: store.HashIndex},
			{Path: "text", Kind: store.TextIndex},
		}},
		{t.Entities, []store.IndexSpec{
			{Name: "name_1", Path: "name", Kind: store.BTreeIndex},
			{Name: "type_1", Path: "type", Kind: store.HashIndex},
			{Name: "source_url_1", Path: "source_url", Kind: store.HashIndex},
			{Name: "price_1", Path: "attributes.price", Kind: store.HashIndex},
			{Name: "gross_1", Path: "attributes.gross", Kind: store.HashIndex},
			{Name: "date_1", Path: "attributes.date", Kind: store.HashIndex},
			{Name: "schedule_1", Path: "attributes.schedule", Kind: store.HashIndex},
			{Name: "award_1", Path: "attributes.award_winning", Kind: store.HashIndex},
		}},
	} {
		for _, ix := range set.indexes {
			if err := set.s.EnsureIndexCtx(ctx, ix); err != nil {
				return err
			}
		}
	}
	return nil
}

// ImportFTables generates the structured sources and applies each, in
// generation order, as one ApplyRecords batch: integration into the global
// schema bottom-up (match, route uncertain matches to the expert pool,
// apply decisions), then translation and cleaning.
func (t *Tamer) ImportFTables(ctx context.Context) error {
	start := time.Now()
	sources := datagen.GenerateFTables(datagen.FTablesConfig{
		Sources: t.cfg.FTSources,
		Seed:    t.cfg.Seed,
	})
	for _, src := range sources {
		if _, err := t.ApplyRecords(ctx, src.Name, src.Records); err != nil {
			return err
		}
	}
	t.stage("import-ftables", len(sources), start)
	return nil
}

// resolveWithExperts routes review-band attribute matches to the expert
// pool with escalation (low-confidence verdicts re-ask a wider panel); the
// final decision either maps the attribute or adds it to the global schema.
func (t *Tamer) resolveWithExperts(ctx context.Context, source string, review []match.AttrMatch) error {
	const newAttr = "(new attribute)"
	for _, m := range review {
		if err := ctx.Err(); err != nil {
			return dterr.FromContext(err)
		}
		task := expert.Task{
			Domain:  "schema",
			Options: []string{m.Best().Target, newAttr},
			// The simulation treats the matcher's best suggestion as ground
			// truth when its score clears the midpoint of the review band.
			Truth: simulatedTruth(m, t.Matcher, newAttr),
		}
		res, err := t.Experts.ProcessWithEscalation(task)
		if err != nil {
			return fmt.Errorf("core: expert sourcing: %w", err)
		}
		answer := res.Decision.Answer
		if answer == newAttr || answer == "" {
			t.Global.AddAttribute(m.Attr, source)
			continue
		}
		target, ok := t.Global.Attribute(answer)
		if !ok {
			t.Global.AddAttribute(m.Attr, source)
			continue
		}
		if err := t.Global.MapAttribute(m.Attr, source, target); err != nil {
			return err
		}
	}
	return nil
}

func simulatedTruth(m match.AttrMatch, e *match.Engine, newAttr string) string {
	mid := (e.AcceptThreshold + e.NewThreshold) / 2
	if m.Best().Score >= mid {
		return m.Best().Target
	}
	return newAttr
}

// CleanAndConsolidate consolidates duplicates (same show from different
// sources) into one record per entity: the RefreshFused that folds the
// records ImportFTables applied into the fused view.
func (t *Tamer) CleanAndConsolidate(ctx context.Context) error {
	start := time.Now()
	if _, err := t.RefreshFused(ctx); err != nil {
		return err
	}
	t.stage("clean-consolidate", len(t.fusedSnapshot().records), start)
	return nil
}

// fusedBlocker is the blocking scheme of the fused view: it both blocks the
// consolidation and picks the clusters a refresh re-consolidates.
var fusedBlocker = dedup.PrefixBlocker("SHOW_NAME", 4)

// matcherLocked returns the cached dedup matcher, training it on first use.
// Must hold t.mu.
func (t *Tamer) matcherLocked() *dedup.Matcher {
	if t.dedupMatcher == nil {
		t.dedupMatcher = t.trainDedupMatcher()
	}
	return t.dedupMatcher
}

// trainDedupMatcher fits the ML match classifier on generated labeled pairs
// — the Section IV classifier, trained once per pipeline.
func (t *Tamer) trainDedupMatcher() *dedup.Matcher {
	pairs := datagen.GeneratePairs(t.pairsConfig(extract.Movie, 600, t.cfg.Seed+17))
	fz := dedup.Featurizer{Attrs: []string{"name", "SHOW_NAME", "city"}}
	// Pair records use "name"; fused records use "SHOW_NAME" — train on a
	// featurizer that reads either. The pairs are this call's own, so they
	// are renamed where they are.
	for _, p := range pairs {
		p.A.Rename("name", "SHOW_NAME")
		p.B.Rename("name", "SHOW_NAME")
	}
	return dedup.TrainMatcher(pairs, fz, ml.NaiveBayesTrainer(5))
}

// pairsConfig generates labeled pairs from the parser's gazetteer, which no
// one changes once it is built, rather than from a second default one.
func (t *Tamer) pairsConfig(typ extract.Type, n int, seed int64) datagen.PairsConfig {
	return datagen.PairsConfig{Type: typ, N: n, Seed: seed, Gazetteer: t.Parser.Gazetteer()}
}

// TypeCount is one row of the Table III aggregation.
type TypeCount struct {
	Type  string
	Count int64
}

// EntityTypeCounts reproduces Table III: entity counts by type, descending.
func (t *Tamer) EntityTypeCounts(ctx context.Context) ([]TypeCount, error) {
	if err := ctx.Err(); err != nil {
		return nil, dterr.FromContext(err)
	}
	counts, err := t.Entities.DistinctCtx(ctx, "type")
	if err != nil {
		return nil, err
	}
	out := make([]TypeCount, 0, len(counts))
	for typ, n := range counts {
		out = append(out, TypeCount{Type: typ, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Type < out[j].Type
	})
	return out, nil
}

// InstanceStats returns the WEBINSTANCE namespace stats (Table I).
func (t *Tamer) InstanceStats() store.Stats { return t.Instances.Stats() }

// EntityStats returns the WEBENTITIES namespace stats (Table II).
func (t *Tamer) EntityStats() store.Stats { return t.Entities.Stats() }

// InstanceStatsCtx is InstanceStats with context propagation and
// remote-failure reporting — in cluster mode a dead shard node surfaces
// as an error here instead of silently zeroed stats.
func (t *Tamer) InstanceStatsCtx(ctx context.Context) (store.Stats, error) {
	return t.Instances.StatsCtx(ctx)
}

// EntityStatsCtx is EntityStats with context propagation and
// remote-failure reporting.
func (t *Tamer) EntityStatsCtx(ctx context.Context) (store.Stats, error) {
	return t.Entities.StatsCtx(ctx)
}

// TopDiscussed runs the Table IV query; k <= 0 returns the full ranking.
// The store counts the award-winning mentions by name, so every call
// reads the stores as they are: there is no ranking to keep fresh.
func (t *Tamer) TopDiscussed(ctx context.Context, k int) ([]fuse.Discussed, error) {
	if err := ctx.Err(); err != nil {
		return nil, dterr.FromContext(err)
	}
	return t.Query.TopDiscussed(ctx, k)
}

// QueryWebText runs the Table V query: the show as seen from web text only.
func (t *Tamer) QueryWebText(ctx context.Context, show string) (*record.Record, error) {
	if err := ctx.Err(); err != nil {
		return nil, dterr.FromContext(err)
	}
	if show == "" {
		return nil, dterr.New(dterr.CodeInvalidArgument, "empty show name")
	}
	return t.Query.WebTextRecord(ctx, show)
}

// QueryFused runs the Table VI query: the web-text view enriched with the
// consolidated structured record for the show. The structured side is one
// probe of the snapshot's SHOW_NAME hash index instead of a renormalizing
// scan of the fused table.
func (t *Tamer) QueryFused(ctx context.Context, show string) (*record.Record, error) {
	_, fused, err := t.QueryShow(ctx, show)
	return fused, err
}

// QueryShow runs Tables V and VI in one pass: the web-text view is
// computed once and the fused enrichment reuses it, so a serving layer
// that returns both views pays the text search once per request. When the
// fused table has no record for the show, fused is the web view itself.
func (t *Tamer) QueryShow(ctx context.Context, show string) (web, fused *record.Record, err error) {
	web, err = t.QueryWebText(ctx, show)
	if err != nil {
		return nil, nil, err
	}
	matches := t.fusedSnapshot().lookup(show)
	if len(matches) == 0 {
		return web, web, nil
	}
	return web, fuse.Enrich(web, matches[0]), nil
}

// ShowInFused reports whether the consolidated fused table holds a record
// for the show — the existence check behind the API's 404, independent of
// whether enrichment added any fields.
func (t *Tamer) ShowInFused(ctx context.Context, show string) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, dterr.FromContext(err)
	}
	return len(t.fusedSnapshot().lookup(show)) > 0, nil
}

// QueryEntities parses the filter-language query and answers it over the
// entity store as q describes — a window (Offset, Limit) with the match
// total, or the plan (Explain); q.Filter is replaced by the parsed query.
// Callers need no access to the store internals. A malformed query is an
// invalid-argument error.
func (t *Tamer) QueryEntities(ctx context.Context, query string, q store.Query) (store.Result, error) {
	if err := ctx.Err(); err != nil {
		return store.Result{}, dterr.FromContext(err)
	}
	if query == "" {
		return store.Result{}, dterr.New(dterr.CodeInvalidArgument, "empty query")
	}
	filter, err := store.ParseFilter(query)
	if err != nil {
		return store.Result{}, dterr.Wrap(dterr.CodeInvalidArgument, err)
	}
	q.Filter = filter
	return t.Entities.QueryCtx(ctx, q)
}

// FindEntities is the unbounded QueryEntities: every matching document.
func (t *Tamer) FindEntities(ctx context.Context, query string) ([]*store.Doc, error) {
	res, err := t.QueryEntities(ctx, query, store.Query{Limit: store.NoLimit})
	return res.Docs, err
}

// CheapestShows ranks consolidated shows by price ascending — the "best
// price possible" side of the demo narrative; k <= 0 returns all.
func (t *Tamer) CheapestShows(ctx context.Context, k int) ([]fuse.PricedShow, error) {
	if err := ctx.Err(); err != nil {
		return nil, dterr.FromContext(err)
	}
	return t.fusedSnapshot().cheapest(k), nil
}

// FusionCoverage reports per-attribute fill rates of the consolidated
// records for the Table VI attributes.
func (t *Tamer) FusionCoverage(ctx context.Context) ([]fuse.Coverage, error) {
	if err := ctx.Err(); err != nil {
		return nil, dterr.FromContext(err)
	}
	return t.fusedSnapshot().coverageRows(), nil
}

// ClassifierCV runs the Section IV evaluation for one entity type: 10-fold
// cross-validation of the dedup classifier over generated labeled pairs.
func (t *Tamer) ClassifierCV(ctx context.Context, typ extract.Type, n int) (ml.CVResult, error) {
	if err := ctx.Err(); err != nil {
		return ml.CVResult{}, dterr.FromContext(err)
	}
	pairs := datagen.GeneratePairs(t.pairsConfig(typ, n, t.cfg.Seed+int64(len(typ))))
	fz := dedup.Featurizer{Attrs: []string{"name", "city"}}
	examples := make([]ml.Example, len(pairs))
	for i, p := range pairs {
		examples[i] = ml.Example{Features: fz.Features(p.A, p.B), Label: p.Match}
	}
	return ml.CrossValidate(ml.NaiveBayesTrainer(5), examples, 10, t.cfg.Seed), nil
}
