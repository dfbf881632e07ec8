package datatamer

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/dterr"
	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/record"
)

var (
	integOnce sync.Once
	integTm   *Tamer
	integErr  error
)

// integration pipeline at a scale large enough to exercise every module.
func integPipeline(t *testing.T) *Tamer {
	t.Helper()
	integOnce.Do(func() {
		integTm, integErr = Open(context.Background(),
			WithFragments(1500), WithSources(20), WithSeed(42))
	})
	if integErr != nil {
		t.Fatal(integErr)
	}
	return integTm
}

// TestEndToEndTableShapes verifies the headline shape of every table in one
// pipeline run: counts, ratios, rankings, enrichment, and classifier band.
func TestEndToEndTableShapes(t *testing.T) {
	tm := integPipeline(t)

	// Table I/II shape: entity count dominates instance count; the entity
	// namespace carries 8 indexes vs 1; both namespaces span extents.
	inst, ent := tm.InstanceStats(), tm.EntityStats()
	if inst.Count != 1500 {
		t.Errorf("instances = %d", inst.Count)
	}
	ratio := float64(ent.Count) / float64(inst.Count)
	if ratio < 2 || ratio > 20 {
		t.Errorf("entity/instance ratio = %.1f (paper: ~9.8)", ratio)
	}
	if inst.NIndexes != 1 || ent.NIndexes != 8 {
		t.Errorf("nindexes = %d/%d, want 1/8", inst.NIndexes, ent.NIndexes)
	}

	// Table III shape: Person and OrgEntity near the top, Movie near the
	// bottom among frequent types, all 15 types present or nearly so.
	counts, err := tm.TypeCounts(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rank := map[string]int{}
	for i, c := range counts {
		rank[c.Type] = i
	}
	if len(counts) < 12 {
		t.Errorf("only %d types extracted", len(counts))
	}

	// Table IV: top-listed shows are exactly award winners, ranked.
	top, err := tm.TopDiscussed(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) < 5 {
		t.Fatalf("top-discussed = %d rows", len(top))
	}
	if !strings.EqualFold(top[0].Name, "The Walking Dead") {
		t.Errorf("rank 1 = %s", top[0].Name)
	}
	for i := 1; i < len(top); i++ {
		if top[i-1].Mentions < top[i].Mentions {
			t.Errorf("ranking not sorted at %d", i)
		}
	}

	// Table V -> VI: fusion adds exactly the structured fields.
	web, err := tm.QueryWebText(context.Background(), "Matilda")
	if err != nil {
		t.Fatal(err)
	}
	if !web.Has("TEXT_FEED") {
		t.Error("web-text record has no text feed")
	}
	fused, err := tm.QueryFused(context.Background(), "Matilda")
	if err != nil {
		t.Fatal(err)
	}
	added := 0
	for _, f := range fused.Fields() {
		if !web.Has(f.Name) {
			added++
		}
	}
	if added < 4 {
		t.Errorf("fusion added only %d fields", added)
	}
	for _, attr := range TableVIOrder {
		if !fused.Has(attr) {
			t.Errorf("fused record missing %s", attr)
		}
	}

	// Section IV: classifier in the high-precision/recall band on several
	// entity types.
	for _, typ := range []EntityType{extract.Person, extract.Company} {
		res, err := tm.ClassifierCV(context.Background(), typ, 400)
		if err != nil {
			t.Fatal(err)
		}
		if res.MeanPrecision() < 0.80 || res.MeanRecall() < 0.80 {
			t.Errorf("%s classifier = %s", typ, res)
		}
	}
}

// TestDeterministicRuns verifies two pipelines with the same seed agree on
// every reported number.
func TestDeterministicRuns(t *testing.T) {
	ctx := context.Background()
	a, err := Open(ctx, WithFragments(200), WithSources(5), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(ctx, WithFragments(200), WithSources(5), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if a.InstanceStats() != b.InstanceStats() {
		t.Errorf("instance stats differ: %+v vs %+v", a.InstanceStats(), b.InstanceStats())
	}
	if a.EntityStats() != b.EntityStats() {
		t.Errorf("entity stats differ")
	}
	ta, err := a.TopDiscussed(ctx, 10)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := b.TopDiscussed(ctx, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(ta) != len(tb) {
		t.Fatalf("rankings differ in length")
	}
	for i := range ta {
		if ta[i] != tb[i] {
			t.Errorf("ranking differs at %d: %+v vs %+v", i, ta[i], tb[i])
		}
	}
	fa, err := a.QueryFused(ctx, "Matilda")
	if err != nil {
		t.Fatal(err)
	}
	fb, err := b.QueryFused(ctx, "Matilda")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(fa.Fields(), fb.Fields()) {
		t.Error("fused records differ")
	}
}

// TestScaleGrowth verifies stats grow sensibly with corpus scale (the
// "at scale" architecture claim at laptop size).
func TestScaleGrowth(t *testing.T) {
	ctx := context.Background()
	small := core.New(core.Config{Fragments: 100, FTSources: 3, Seed: 2, ExtentSize: 64 << 10})
	if err := small.IngestWebText(ctx); err != nil {
		t.Fatal(err)
	}
	large := core.New(core.Config{Fragments: 400, FTSources: 3, Seed: 2, ExtentSize: 64 << 10})
	if err := large.IngestWebText(ctx); err != nil {
		t.Fatal(err)
	}
	ss, ls := small.EntityStats(), large.EntityStats()
	if ls.Count <= ss.Count {
		t.Errorf("entity count did not grow: %d vs %d", ls.Count, ss.Count)
	}
	if ls.NumExtents < ss.NumExtents {
		t.Errorf("extents shrank: %d vs %d", ls.NumExtents, ss.NumExtents)
	}
	if ls.TotalIndexSize <= ss.TotalIndexSize {
		t.Errorf("index size did not grow")
	}
}

// TestFormatKVFacade exercises the exported formatting helper.
func TestFormatKVFacade(t *testing.T) {
	tm := integPipeline(t)
	fused, err := tm.QueryFused(context.Background(), "Matilda")
	if err != nil {
		t.Fatal(err)
	}
	out := FormatKV(fused, TableVIOrder)
	for _, want := range []string{"SHOW_NAME", "THEATER", "TEXT_FEED", "CHEAPEST_PRICE"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %s:\n%s", want, out)
		}
	}
}

// TestTableIVShowsExported sanity-checks the exported demo constants.
func TestTableIVShowsExported(t *testing.T) {
	if len(TableIVShows) != 10 {
		t.Errorf("TableIVShows = %d", len(TableIVShows))
	}
	if len(ClassifierTypes) < 3 {
		t.Errorf("ClassifierTypes = %d", len(ClassifierTypes))
	}
}

// TestOpenCancelledContext verifies Open aborts the batch run when its
// context is already cancelled, with the typed classification.
func TestOpenCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Open(ctx, WithFragments(300), WithSeed(3))
	if err == nil {
		t.Fatal("Open with cancelled ctx should fail")
	}
	if !errors.Is(err, context.Canceled) || !errors.Is(err, dterr.ErrCanceled) {
		t.Errorf("error = %v", err)
	}
}

// TestWriteMethodsUnavailableWithoutLive verifies the typed unavailable
// error on a batch-only pipeline.
func TestWriteMethodsUnavailableWithoutLive(t *testing.T) {
	tm := integPipeline(t)
	ctx := context.Background()
	if tm.Live() {
		t.Fatal("integration pipeline should be batch-only")
	}
	if err := tm.IngestText(ctx, []Fragment{{URL: "u", Text: "x"}}); !errors.Is(err, dterr.ErrUnavailable) {
		t.Errorf("IngestText = %v", err)
	}
	if err := tm.Flush(ctx); !errors.Is(err, dterr.ErrUnavailable) {
		t.Errorf("Flush = %v", err)
	}
	if _, err := tm.LiveStats(); !errors.Is(err, dterr.ErrUnavailable) {
		t.Errorf("LiveStats = %v", err)
	}
}

// TestOpenWithLiveRoundTrip exercises the full options surface: live
// ingestion through the facade, flush, fused query, close.
func TestOpenWithLiveRoundTrip(t *testing.T) {
	ctx := context.Background()
	tm, err := Open(ctx,
		WithFragments(150), WithSources(3), WithShards(2), WithSeed(8),
		WithLive(t.TempDir()),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer tm.Close()
	if !tm.Live() {
		t.Fatal("live mode not enabled")
	}
	err = tm.IngestText(ctx, []Fragment{
		{URL: "http://x/1", Text: "Silver Comet an award-winning revival, grossed 300,000 this week."},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := record.New()
	rec.Set("SHOW_NAME", record.String("Silver Comet"))
	rec.Set("THEATER", record.String("Imperial"))
	rec.Set("CHEAPEST_PRICE", record.Int(37))
	if err := tm.IngestRecords(ctx, "facade_feed", []*Record{rec}); err != nil {
		t.Fatal(err)
	}
	if err := tm.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	fused, err := tm.QueryFused(ctx, "Silver Comet")
	if err != nil {
		t.Fatal(err)
	}
	if fused.GetString("THEATER") == "" {
		t.Errorf("fused record = %v", fused)
	}
	st, err := tm.LiveStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Fragments != 1 || st.Records != 1 {
		t.Errorf("live stats = %+v", st)
	}
}

// TestLoadStoresInvalidatesResponseCache: restoring a checkpoint replaces
// the stores under a running handler, so the next read must be recomputed
// from them — neither a cached body nor a 304 for the pre-restore ETag.
func TestLoadStoresInvalidatesResponseCache(t *testing.T) {
	ctx := context.Background()
	saved, err := Open(ctx, WithFragments(120), WithSources(3), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := saved.SaveStoresCtx(ctx, dir); err != nil {
		t.Fatal(err)
	}
	tm, err := Open(ctx, WithFragments(200), WithSources(3), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	h := tm.Handler()
	stats := func(hdr map[string]string) (*httptest.ResponseRecorder, int64) {
		req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var body struct {
			Data map[string]Stats `json:"data"`
		}
		_ = json.Unmarshal(rec.Body.Bytes(), &body)
		return rec, body.Data["instance"].Count
	}
	if _, n := stats(nil); n != 200 {
		t.Fatalf("before the restore /v1/stats counts %d instances, want 200", n)
	}
	before, _ := stats(nil)
	if before.Header().Get("X-Cache") != "HIT" {
		t.Fatalf("second GET X-Cache = %q, want HIT", before.Header().Get("X-Cache"))
	}
	if err := tm.LoadStores(ctx, dir); err != nil {
		t.Fatal(err)
	}
	after, n := stats(nil)
	if after.Header().Get("X-Cache") == "HIT" || n != 120 {
		t.Errorf("after the restore: X-Cache %q, %d instances; want a fresh body counting 120", after.Header().Get("X-Cache"), n)
	}
	if rec, _ := stats(map[string]string{"If-None-Match": before.Header().Get("ETag")}); rec.Code == http.StatusNotModified {
		t.Error("the pre-restore ETag still revalidates")
	}
}
