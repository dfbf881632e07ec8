package datatamer

import (
	"context"
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

// TestOpenWithLiveReopenServesTheSameReads: a live pipeline persists and
// recovers only through its own directory. After a text and a records batch
// and a Close, an Open with the same options over the same directory must
// serve every /v1 read byte for byte as the closed pipeline did — the
// stores from their snapshots and the fused view from its members.
func TestOpenWithLiveReopenServesTheSameReads(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	open := func() *Tamer {
		tm, err := Open(ctx, WithFragments(150), WithSources(3), WithShards(2), WithSeed(8), WithLive(dir))
		if err != nil {
			t.Fatal(err)
		}
		return tm
	}
	urls := []string{
		"/v1/show?name=Matilda",
		"/v1/show?name=Silver+Comet",
		"/v1/top?limit=5",
		"/v1/cheapest?limit=5",
		"/v1/types",
		"/v1/find?q=type%20%3D%20Movie&limit=3",
		"/v1/stats",
	}
	read := func(tm *Tamer) map[string]string {
		h := tm.Handler()
		bodies := make(map[string]string, len(urls))
		for _, u := range urls {
			code, body := httpGet(t, h, u)
			if code != http.StatusOK {
				t.Fatalf("GET %s = %d: %s", u, code, body)
			}
			bodies[u] = body
		}
		return bodies
	}

	tm := open()
	err := tm.IngestText(ctx, []Fragment{
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
	want := read(tm)
	if err := tm.Close(); err != nil {
		t.Fatal(err)
	}

	reopened := open()
	defer reopened.Close()
	got := read(reopened)
	for _, u := range urls {
		if got[u] != want[u] {
			t.Errorf("GET %s after the reopen:\n%s\nbefore the close:\n%s", u, got[u], want[u])
		}
	}
	if st, err := reopened.LiveStats(); err != nil || st.ReplayApplied != 0 {
		t.Errorf("reopen after a clean close replayed %+v (%v), want nothing", st, err)
	}
}

// TestETagFromBeforeARestartDoesNotValidate: an ETag names a body at one
// data generation, and a reopened live pipeline starts above every
// generation the closed one served. A show read before a record was
// ingested, whose ETag the client still holds after a Close and an Open of
// the same directory, must come back 200 with the body that holds the
// record, not 304.
func TestETagFromBeforeARestartDoesNotValidate(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	open := func() *Tamer {
		tm, err := Open(ctx, WithFragments(150), WithSources(3), WithShards(2), WithSeed(8), WithLive(dir))
		if err != nil {
			t.Fatal(err)
		}
		return tm
	}
	const show = "/v1/show?name=Silver+Comet"
	get := func(tm *Tamer, etag string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("GET", show, nil)
		if etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
		rec := httptest.NewRecorder()
		tm.Handler().ServeHTTP(rec, req)
		return rec
	}
	ingest := func(tm *Tamer, source, theater string) {
		rec := record.New()
		rec.Set("SHOW_NAME", record.String("Silver Comet"))
		rec.Set("THEATER", record.String(theater))
		if err := tm.IngestRecords(ctx, source, []*Record{rec}); err != nil {
			t.Fatal(err)
		}
		if err := tm.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}

	tm := open()
	ingest(tm, "facade_feed", "Imperial")
	before := get(tm, "")
	etag := before.Header().Get("ETag")
	if before.Code != http.StatusOK || etag == "" {
		t.Fatalf("first read: %d, ETag %q", before.Code, etag)
	}
	if again := get(tm, etag); again.Code != http.StatusNotModified {
		t.Fatalf("the same pipeline answered its own ETag %d, want 304", again.Code)
	}
	ingest(tm, "second_feed", "Majestic Theatre")
	if err := tm.Close(); err != nil {
		t.Fatal(err)
	}

	reopened := open()
	defer reopened.Close()
	after := get(reopened, etag)
	if after.Code != http.StatusOK {
		t.Fatalf("the reopened pipeline answered the closed one's ETag %s with %d, want 200", etag, after.Code)
	}
	if after.Body.String() == before.Body.String() || after.Header().Get("ETag") == etag {
		t.Fatalf("the body after the restart is the one before it, ETag %s", after.Header().Get("ETag"))
	}
	if fresh := get(reopened, ""); fresh.Body.String() != after.Body.String() {
		t.Fatalf("a conditional read served %s, a plain one %s", after.Body, fresh.Body)
	}
}
