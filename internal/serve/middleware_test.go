package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/record"
)

// newTamer builds a small batch-mode pipeline for middleware tests that
// need their own instance (the shared testServer has no cache).
func newTamer(t *testing.T) *core.Tamer {
	t.Helper()
	tm := core.New(core.Config{Fragments: 300, FTSources: 5, Seed: 6})
	if err := tm.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return tm
}

func getWithHeaders(t *testing.T, s *Server, path string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// TestCachedResponsesByteIdentical is the cache-correctness contract: for
// every cacheable /v1 route (pagination parameters included), the
// envelope a cache-enabled server returns — on the miss AND on the hit —
// is byte-identical to what a cache-free server computes.
func TestCachedResponsesByteIdentical(t *testing.T) {
	tm := newTamer(t)
	plain := New(tm)
	cached := New(tm, WithGeneration(tm.DataGeneration), WithMetrics(obs.NewRegistry()))

	paths := []string{
		"/v1/stats",
		"/v1/types?limit=3",
		"/v1/types?limit=3&offset=1", // distinct page → distinct cache entry
		"/v1/top?limit=5",
		"/v1/cheapest?limit=2",
		"/v1/find?q=type+%3D+Movie&limit=4",
		"/v1/show?name=Matilda",
	}
	bodies := make(map[string][]byte)
	for _, path := range paths {
		want := getWithHeaders(t, plain, path, nil)
		if want.Code != http.StatusOK {
			t.Fatalf("GET %s uncached = %d", path, want.Code)
		}
		miss := getWithHeaders(t, cached, path, nil)
		if miss.Code != http.StatusOK || miss.Header().Get("X-Cache") != "MISS" {
			t.Fatalf("GET %s first = %d X-Cache=%q, want 200 MISS", path, miss.Code, miss.Header().Get("X-Cache"))
		}
		hit := getWithHeaders(t, cached, path, nil)
		if hit.Code != http.StatusOK || hit.Header().Get("X-Cache") != "HIT" {
			t.Fatalf("GET %s second = %d X-Cache=%q, want 200 HIT", path, hit.Code, hit.Header().Get("X-Cache"))
		}
		if !bytes.Equal(want.Body.Bytes(), miss.Body.Bytes()) {
			t.Errorf("GET %s: miss body differs from uncached body", path)
		}
		if !bytes.Equal(want.Body.Bytes(), hit.Body.Bytes()) {
			t.Errorf("GET %s: cached body differs from uncached body", path)
		}
		if hit.Header().Get("ETag") == "" {
			t.Errorf("GET %s: no ETag on cached response", path)
		}
		bodies[path] = want.Body.Bytes()
	}
	if bytes.Equal(bodies["/v1/types?limit=3"], bodies["/v1/types?limit=3&offset=1"]) {
		t.Error("offset=0 and offset=1 pages are identical; pagination params not in the cache key?")
	}
}

// TestConditionalGetStaleAfterBatchApply is the satellite regression: a
// write through the batch ApplyRecords path (no live ingester anywhere)
// must bump the generation, so a client revalidating with its pre-write
// ETag gets fresh bytes, never a stale 304.
func TestConditionalGetStaleAfterBatchApply(t *testing.T) {
	tm := newTamer(t)
	s := New(tm, WithGeneration(tm.DataGeneration), WithMetrics(obs.NewRegistry()))

	first := getWithHeaders(t, s, "/v1/cheapest?limit=5", nil)
	etag := first.Header().Get("ETag")
	if first.Code != http.StatusOK || etag == "" {
		t.Fatalf("prime GET = %d, ETag %q", first.Code, etag)
	}
	if rec := getWithHeaders(t, s, "/v1/cheapest?limit=5", map[string]string{"If-None-Match": etag}); rec.Code != http.StatusNotModified {
		t.Fatalf("revalidation before write = %d, want 304", rec.Code)
	}

	rec := record.New()
	rec.Set("SHOW_NAME", record.String("Zyxxaq Cascade"))
	rec.Set("CHEAPEST_PRICE", record.String("$1"))
	if _, err := tm.ApplyRecords(context.Background(), "batch_feed", []*record.Record{rec}); err != nil {
		t.Fatal(err)
	}

	after := getWithHeaders(t, s, "/v1/cheapest?limit=5", map[string]string{"If-None-Match": etag})
	if after.Code != http.StatusOK {
		t.Fatalf("revalidation after ApplyRecords = %d, want 200 (stale 304 bug)", after.Code)
	}
	if got := after.Header().Get("ETag"); got == etag {
		t.Errorf("ETag unchanged across a write: %q", got)
	}
	if !strings.Contains(after.Body.String(), "Zyxxaq Cascade") {
		t.Errorf("fresh body after write lacks the new record: %s", after.Body.String())
	}
}

// TestRateLimitShedsOverRateOnly: a client sustained over its rate gets
// 429 + Retry-After; a different client (distinct X-API-Key) staying
// inside its own bucket is unaffected by the noisy neighbor.
func TestRateLimitShedsOverRateOnly(t *testing.T) {
	tm := newTamer(t)
	s := New(tm, WithGeneration(tm.DataGeneration), WithMetrics(obs.NewRegistry()), WithRateLimit(5, 5))

	okA, shedA := 0, 0
	for i := 0; i < 20; i++ {
		rec := getWithHeaders(t, s, "/v1/stats", map[string]string{"X-API-Key": "noisy"})
		switch rec.Code {
		case http.StatusOK:
			okA++
		case http.StatusTooManyRequests:
			shedA++
			ra := rec.Header().Get("Retry-After")
			secs, err := strconv.Atoi(ra)
			if err != nil || secs < 1 {
				t.Fatalf("429 Retry-After = %q, want integer seconds >= 1", ra)
			}
			if !strings.Contains(rec.Body.String(), `"busy"`) {
				t.Fatalf("429 body lacks typed busy error: %s", rec.Body.String())
			}
		default:
			t.Fatalf("unexpected status %d", rec.Code)
		}
	}
	if shedA == 0 {
		t.Fatalf("20 instant requests against burst 5 never shed (ok=%d)", okA)
	}
	if okA == 0 {
		t.Fatal("burst traffic fully shed; bucket never admitted anything")
	}

	// The in-limit client's bucket is its own: full burst available.
	for i := 0; i < 3; i++ {
		if rec := getWithHeaders(t, s, "/v1/top?limit=3", map[string]string{"X-API-Key": "polite"}); rec.Code != http.StatusOK {
			t.Fatalf("in-limit client request %d = %d, want 200", i, rec.Code)
		}
	}

	// Exempt paths never shed, even for the noisy client.
	if rec := getWithHeaders(t, s, "/healthz", map[string]string{"X-API-Key": "noisy"}); rec.Code != http.StatusOK {
		t.Errorf("/healthz rate limited: %d", rec.Code)
	}
}

// TestUnroutedPathsThroughMiddleware: with the unversioned shims gone,
// their old paths — like any unknown path — answer the mux's 404, still
// ride the middleware chain (metered, rate limited), and are labeled with
// the bounded "other" route rather than the raw path.
func TestUnroutedPathsThroughMiddleware(t *testing.T) {
	tm := newTamer(t)
	reg := obs.NewRegistry()
	s := New(tm, WithGeneration(tm.DataGeneration), WithMetrics(reg), WithRateLimit(3, 3))

	for _, path := range []string{"/stats", "/ingest/text", "/no/such/route"} {
		if rec := getWithHeaders(t, s, path, map[string]string{"X-API-Key": path}); rec.Code != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, rec.Code)
		}
	}
	out := reg.Render()
	if !strings.Contains(out, `dt_http_requests_total{route="other",method="GET",code="404"} 3`) {
		t.Errorf("unrouted paths not metered under the bounded label:\n%s", out)
	}
	for _, raw := range []string{`route="/stats"`, `route="/ingest/text"`, `route="/no/such/route"`} {
		if strings.Contains(out, raw) {
			t.Errorf("raw path leaked into the route label: %s", raw)
		}
	}

	shed := false
	for i := 0; i < 10; i++ {
		if rec := getWithHeaders(t, s, "/top", nil); rec.Code == http.StatusTooManyRequests {
			if rec.Header().Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
			shed = true
			break
		}
	}
	if !shed {
		t.Error("unrouted path not rate limited")
	}
}

// TestMetricsExposeEveryV1Routes: after traffic, /metrics carries request
// counts and latency histograms labeled with each /v1 route, plus the
// cache and admission-drop series.
func TestMetricsExposeEveryV1Routes(t *testing.T) {
	tm := newTamer(t)
	reg := obs.NewRegistry()
	s := New(tm, WithGeneration(tm.DataGeneration), WithMetrics(reg), WithRateLimit(1, 1))

	v1Gets := []string{
		"/v1/stats", "/v1/types", "/v1/top", "/v1/cheapest",
		"/v1/find?q=type+%3D+Movie", "/v1/show?name=Matilda", "/v1/live/stats",
	}
	for _, p := range v1Gets {
		getWithHeaders(t, s, p, map[string]string{"X-API-Key": "m" + p})
	}
	// Writes in batch mode answer 503 — still a metered request.
	for _, p := range []string{"/v1/ingest/text", "/v1/ingest/records", "/v1/flush"} {
		req := httptest.NewRequest(http.MethodPost, p, strings.NewReader("{}"))
		req.Header.Set("X-API-Key", "m"+p)
		s.ServeHTTP(httptest.NewRecorder(), req)
	}
	// One over-rate burst materializes the admission-drop series.
	for i := 0; i < 5; i++ {
		getWithHeaders(t, s, "/v1/stats", map[string]string{"X-API-Key": "burst"})
	}

	text := reg.Render()
	for _, route := range []string{
		"/v1/stats", "/v1/types", "/v1/top", "/v1/cheapest", "/v1/find",
		"/v1/show", "/v1/live/stats", "/v1/ingest/text", "/v1/ingest/records", "/v1/flush",
	} {
		if !strings.Contains(text, fmt.Sprintf(`dt_http_requests_total{route="%s"`, route)) {
			t.Errorf("no request series for %s", route)
		}
		if !strings.Contains(text, fmt.Sprintf(`dt_http_request_seconds_bucket{route="%s"`, route)) {
			t.Errorf("no latency series for %s", route)
		}
	}
	for _, series := range []string{
		"dt_cache_hits_total", "dt_cache_misses_total",
		`dt_admission_dropped_total{route="/v1/stats",reason="rate"}`,
	} {
		if !strings.Contains(text, series) {
			t.Errorf("missing series %q in:\n%s", series, text)
		}
	}

	// /metrics itself serves through the handler and is never throttled.
	rec := getWithHeaders(t, s, "/metrics", map[string]string{"X-API-Key": "burst"})
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
}

// TestAdmissionShedsPastQueue exercises the semaphore directly: with one
// slot held and a zero queue, the next request sheds instantly; after
// release it admits again.
func TestAdmissionShedsPastQueue(t *testing.T) {
	a := newAdmission(1, 0)
	r := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)

	release, shed, err := a.tryEnter(r)
	if shed || err != nil {
		t.Fatalf("first enter: shed=%v err=%v", shed, err)
	}
	if _, shed, err := a.tryEnter(r); !shed || err != nil {
		t.Fatalf("second enter with full slot: shed=%v err=%v, want shed", shed, err)
	}
	release()
	release2, shed, err := a.tryEnter(r)
	if shed || err != nil {
		t.Fatalf("enter after release: shed=%v err=%v", shed, err)
	}
	release2()

	// With a queue of one, a waiter parks until release instead of shedding.
	b := newAdmission(1, 1)
	hold, _, _ := b.tryEnter(r)
	done := make(chan struct{})
	go func() {
		defer close(done)
		rel, shed, err := b.tryEnter(r)
		if shed || err != nil {
			t.Errorf("queued enter: shed=%v err=%v", shed, err)
			return
		}
		rel()
	}()
	time.Sleep(10 * time.Millisecond)
	hold()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("queued request never admitted after release")
	}

	// A cancelled waiter unblocks with the context error.
	c := newAdmission(1, 1)
	holdC, _, _ := c.tryEnter(r)
	defer holdC()
	ctx, cancel := context.WithCancel(context.Background())
	rc := httptest.NewRequest(http.MethodGet, "/v1/stats", nil).WithContext(ctx)
	go func() { time.Sleep(10 * time.Millisecond); cancel() }()
	if _, shed, err := c.tryEnter(rc); shed || err == nil {
		t.Fatalf("cancelled waiter: shed=%v err=%v, want context error", shed, err)
	}
}

// TestCachedReadsDuringIngest hammers the cacheable routes while a live
// ingester applies writes — run under -race this is the concurrency
// gate for the cache/generation interplay, and the final read proves no
// terminally stale body survives the last write.
func TestCachedReadsDuringIngest(t *testing.T) {
	tm := core.New(core.Config{Fragments: 150, FTSources: 3, Shards: 2, Seed: 11})
	if err := tm.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ing, err := live.Open(context.Background(), tm, live.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ing.Close() })
	s := NewLive(tm, ing, WithGeneration(tm.DataGeneration), WithMetrics(obs.NewRegistry()))

	const writers, readers, rounds = 2, 4, 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				body := fmt.Sprintf(`{"source":"race_feed","records":[{"SHOW_NAME":"Racer %d-%d","CHEAPEST_PRICE":"$%d"}]}`, w, i, 10+i)
				req := httptest.NewRequest(http.MethodPost, "/v1/ingest/records", strings.NewReader(body))
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				if rec.Code != http.StatusAccepted {
					t.Errorf("ingest = %d: %s", rec.Code, rec.Body)
					return
				}
				req = httptest.NewRequest(http.MethodPost, "/v1/flush", nil)
				rec = httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("flush = %d: %s", rec.Code, rec.Body)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			paths := []string{"/v1/cheapest?limit=5", "/v1/top?limit=5", "/v1/stats", "/v1/types"}
			var etag string
			for i := 0; i < rounds*3; i++ {
				hdr := map[string]string{}
				if etag != "" && i%3 == 0 {
					hdr["If-None-Match"] = etag
				}
				rec := getWithHeaders(t, s, paths[i%len(paths)], hdr)
				switch rec.Code {
				case http.StatusOK:
					etag = rec.Header().Get("ETag")
					if !strings.Contains(rec.Body.String(), `"data"`) {
						t.Errorf("malformed envelope: %s", rec.Body.String())
						return
					}
				case http.StatusNotModified:
					// fine: nothing changed between the tagged read and now
				default:
					t.Errorf("GET %s = %d", paths[i%len(paths)], rec.Code)
					return
				}
			}
		}(r)
	}
	wg.Wait()

	// Post-quiesce freshness: the last writes must be visible through the
	// cache, not shadowed by an entry from an earlier generation.
	rec := getWithHeaders(t, s, "/v1/cheapest?limit=200", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("final read = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "Racer") {
		t.Error("ingested records missing from cached read after quiesce")
	}
}

// TestCachedBodyOutlivesPooledBuffer: the body the cache keeps on a miss is
// its own copy, not the pooled buffer the handler wrote it in. After the
// next requests reuse — and overwrite — the pooled buffers, a hit still
// serves the bytes the miss served.
func TestCachedBodyOutlivesPooledBuffer(t *testing.T) {
	s := New(stubQuerierFull(), WithGeneration(func() uint64 { return 1 }), WithCacheBytes(1<<20))
	miss := getWithHeaders(t, s, "/v1/show?name=x", nil)
	if miss.Code != http.StatusOK || miss.Header().Get("X-Cache") != "MISS" {
		t.Fatalf("first GET = %d X-Cache=%q, want 200 MISS", miss.Code, miss.Header().Get("X-Cache"))
	}
	for _, path := range []string{"/v1/stats", "/v1/top", "/v1/cheapest", "/v1/types"} {
		getWithHeaders(t, s, path, nil)
	}
	b := newBody()
	b.b = append(b.b[:0], bytes.Repeat([]byte{'#'}, cap(b.b))...)
	jsonBufs.Put(b)
	getWithHeaders(t, s, "/v1/find?q=x", nil)

	hit := getWithHeaders(t, s, "/v1/show?name=x", nil)
	if hit.Header().Get("X-Cache") != "HIT" {
		t.Fatalf("second GET X-Cache=%q, want HIT", hit.Header().Get("X-Cache"))
	}
	if !bytes.Equal(hit.Body.Bytes(), miss.Body.Bytes()) {
		t.Errorf("cached body changed after the pooled buffers were reused:\n%s\nwant:\n%s", hit.Body, miss.Body)
	}
}
