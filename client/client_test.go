package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/dterr"
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/serve"
)

var (
	sdkOnce sync.Once
	sdkSrv  *httptest.Server
	sdkErr  error
)

// sdkServer serves a small live-mode pipeline over real HTTP once for the
// whole package.
func sdkServer(t *testing.T) *httptest.Server {
	t.Helper()
	sdkOnce.Do(func() {
		tm := core.New(core.Config{Fragments: 200, FTSources: 4, Shards: 2, Seed: 13})
		if sdkErr = tm.Run(context.Background()); sdkErr != nil {
			return
		}
		dir, err := makeTempDir()
		if err != nil {
			sdkErr = err
			return
		}
		ing, err := live.Open(context.Background(), tm, live.Config{Dir: dir})
		if err != nil {
			sdkErr = err
			return
		}
		sdkSrv = httptest.NewServer(serve.NewLive(tm, ing))
	})
	if sdkErr != nil {
		t.Fatal(sdkErr)
	}
	return sdkSrv
}

func makeTempDir() (string, error) {
	return testTempDir, testTempDirErr
}

var (
	testTempDir    string
	testTempDirErr error
)

func TestMain(m *testing.M) {
	// One WAL dir for the shared server, cleaned up after the run.
	testTempDir, testTempDirErr = os.MkdirTemp("", "client-sdk-wal")
	code := m.Run()
	if sdkSrv != nil {
		sdkSrv.Close()
	}
	if testTempDirErr == nil {
		os.RemoveAll(testTempDir)
	}
	os.Exit(code)
}

func TestReadEndpoints(t *testing.T) {
	c := New(sdkServer(t).URL)
	ctx := context.Background()

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Instance.Count != 200 || stats.Entity.NIndexes != 8 {
		t.Errorf("stats = %+v", stats)
	}

	types, err := c.Types(ctx, Page{})
	if err != nil {
		t.Fatal(err)
	}
	if len(types.Items) < 10 || types.Total < 10 {
		t.Errorf("types = %+v", types)
	}

	top, err := c.Top(ctx, Page{Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(top.Items) != 3 || top.Limit != 3 || top.Total < 3 {
		t.Errorf("top = %+v", top)
	}
	if top.Items[0].Mentions == 0 || top.Items[0].Name == "" {
		t.Errorf("top row = %+v", top.Items[0])
	}

	cheapest, err := c.Cheapest(ctx, Page{Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(cheapest.Items) != 2 || cheapest.Items[0].Price > cheapest.Items[1].Price {
		t.Errorf("cheapest = %+v", cheapest.Items)
	}

	found, err := c.Find(ctx, "type = Movie", Page{Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(found.Items) != 2 || found.Total <= 2 {
		t.Errorf("find = %d items of %d", len(found.Items), found.Total)
	}

	show, err := c.Show(ctx, "Matilda")
	if err != nil {
		t.Fatal(err)
	}
	if show.WebText["SHOW_NAME"] != "Matilda" || show.Fused["CHEAPEST_PRICE"] != "$27" {
		t.Errorf("show = %+v", show)
	}
}

func TestTypedErrorRoundTrip(t *testing.T) {
	c := New(sdkServer(t).URL)
	ctx := context.Background()

	_, err := c.Show(ctx, "Zz Totally Unknown Zz")
	if !errors.Is(err, dterr.ErrNotFound) {
		t.Errorf("unknown show = %v, want ErrNotFound", err)
	}
	_, err = c.Top(ctx, Page{Limit: -1})
	if err == nil {
		// Limit <= 0 is omitted client-side; force a bad param via Find's
		// raw query instead.
		_, err = c.Find(ctx, "===", Page{})
	}
	if !errors.Is(err, dterr.ErrInvalidArgument) {
		t.Errorf("invalid query = %v, want ErrInvalidArgument", err)
	}
}

func TestWriteAndReadBack(t *testing.T) {
	c := New(sdkServer(t).URL)
	ctx := context.Background()

	n, err := c.IngestText(ctx, []Fragment{
		{URL: "http://sdk/1", Text: "Neon Cathedral an award-winning revival, grossed 111,222 this week."},
	})
	if err != nil || n != 1 {
		t.Fatalf("ingest text = %d, %v", n, err)
	}
	n, err = c.IngestRecords(ctx, "sdk_feed", []map[string]any{
		{"SHOW_NAME": "Neon Cathedral", "THEATER": "Palace", "CHEAPEST_PRICE": 44},
	})
	if err != nil || n != 1 {
		t.Fatalf("ingest records = %d, %v", n, err)
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	show, err := c.Show(ctx, "Neon Cathedral")
	if err != nil {
		t.Fatal(err)
	}
	if show.Fused["THEATER"] != "Palace" {
		t.Errorf("fused = %+v", show.Fused)
	}
	ls, err := c.LiveStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ls.Fragments < 1 || ls.Records < 1 {
		t.Errorf("live stats = %+v", ls)
	}
	if err := c.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestContextCancellation(t *testing.T) {
	c := New(sdkServer(t).URL)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Top(ctx, Page{}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ctx = %v", err)
	}
}

func TestRetriesOn5xxThenSuccess(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"data": map[string]any{"items": []any{}, "total": 0, "limit": 10, "offset": 0},
		})
	}))
	defer ts.Close()

	c := New(ts.URL, WithRetries(3), WithBackoff(time.Millisecond))
	if _, err := c.Top(context.Background(), Page{}); err != nil {
		t.Fatalf("retried GET = %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("calls = %d, want 3 (2 failures + success)", got)
	}
}

func TestWritesAreNeverRetried(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer ts.Close()

	c := New(ts.URL, WithRetries(5), WithBackoff(time.Millisecond))
	if _, err := c.IngestText(context.Background(), []Fragment{{URL: "u", Text: "x"}}); err == nil {
		t.Fatal("expected failure")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("POST attempted %d times, want exactly 1", got)
	}
}

func TestTypedUnavailableNotRetried(t *testing.T) {
	// A typed 503 (batch-mode server) is a deterministic state, not a
	// transient fault — burning the retry budget on it only adds latency.
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(map[string]any{
			"error": map[string]any{"code": "unavailable", "message": "live ingestion disabled"},
		})
	}))
	defer ts.Close()

	c := New(ts.URL, WithRetries(5), WithBackoff(time.Millisecond))
	_, err := c.LiveStats(context.Background())
	if !errors.Is(err, dterr.ErrUnavailable) {
		t.Fatalf("err = %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("typed 503 retried: %d calls, want 1", got)
	}
}

func TestRetriesStopOn4xx(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		_ = json.NewEncoder(w).Encode(map[string]any{
			"error": map[string]any{"code": "invalid_argument", "message": "nope"},
		})
	}))
	defer ts.Close()

	c := New(ts.URL, WithRetries(5), WithBackoff(time.Millisecond))
	_, err := c.Top(context.Background(), Page{})
	if !errors.Is(err, dterr.ErrInvalidArgument) {
		t.Fatalf("err = %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("4xx retried: %d calls", got)
	}
}

// ---- serving-tier cooperation: Retry-After ---------------------------

func TestRetryAfterHonoredOn429(t *testing.T) {
	var calls atomic.Int32
	var gap atomic.Int64
	var first atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		n := calls.Add(1)
		now := time.Now().UnixNano()
		if n == 1 {
			first.Store(now)
			w.Header().Set("Retry-After", "1")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			_ = json.NewEncoder(w).Encode(map[string]any{
				"error": map[string]any{"code": "busy", "message": "shed"},
			})
			return
		}
		gap.Store(now - first.Load())
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"data": map[string]any{"instance": map[string]any{"Count": 1}},
		})
	}))
	defer ts.Close()

	c := New(ts.URL, WithRetries(2), WithBackoff(time.Millisecond))
	if _, err := c.Stats(context.Background()); err != nil {
		t.Fatalf("Stats after 429: %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("calls = %d, want 2", got)
	}
	// The retry must have waited roughly the advertised second, not the
	// 1ms exponential backoff.
	if waited := time.Duration(gap.Load()); waited < 900*time.Millisecond {
		t.Errorf("retry waited %v, want >= ~1s from Retry-After", waited)
	}
}

func TestRetryAfterCapped(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "3600") // hostile hint: one hour
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{"data": map[string]any{"instance": map[string]any{"Count": 1}}})
	}))
	defer ts.Close()

	start := time.Now()
	c := New(ts.URL, WithRetries(1), WithRetryAfterCap(50*time.Millisecond))
	if _, err := c.Stats(context.Background()); err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Errorf("hour-long hint not capped: waited %v", waited)
	}
}

func TestRetryAfterDisabledMeansNoRetry(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer ts.Close()

	c := New(ts.URL, WithRetries(3), WithRetryAfterCap(0), WithBackoff(time.Millisecond))
	_, err := c.Stats(context.Background())
	if !errors.Is(err, dterr.ErrBusy) {
		t.Fatalf("err = %v, want busy", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("429 without usable hint retried: %d calls", got)
	}
}

func TestWritesNotRetriedOn429(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer ts.Close()

	c := New(ts.URL, WithRetries(3), WithBackoff(time.Millisecond))
	err := c.Flush(context.Background())
	if !errors.Is(err, dterr.ErrBusy) {
		t.Fatalf("err = %v, want busy", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("POST retried on 429: %d calls", got)
	}
}

func TestAPIKeyHeaderSent(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if got := r.Header.Get("X-API-Key"); got != "tenant-a" {
			t.Errorf("X-API-Key = %q, want tenant-a", got)
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{"data": map[string]any{"instance": map[string]any{"Count": 1}}})
	}))
	defer ts.Close()

	c := New(ts.URL, WithAPIKey("tenant-a"))
	if _, err := c.Stats(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestWithDegradedCollector(t *testing.T) {
	degraded := true
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if degraded {
			w.Header().Set("X-DT-Degraded", "shards_missing=3")
			_ = json.NewEncoder(w).Encode(map[string]any{
				"data":     map[string]any{"items": []any{}, "total": 0, "limit": 10, "offset": 0},
				"degraded": map[string]any{"shards_missing": 3},
			})
			return
		}
		_ = json.NewEncoder(w).Encode(map[string]any{
			"data": map[string]any{"items": []any{}, "total": 0, "limit": 10, "offset": 0},
		})
	}))
	defer ts.Close()

	c := New(ts.URL)
	ctx, d := WithDegraded(context.Background())
	if _, err := c.Top(ctx, Page{}); err != nil {
		t.Fatalf("degraded read = %v, want success with collector filled", err)
	}
	if d.ShardsMissing != 3 {
		t.Fatalf("collector ShardsMissing = %d, want 3", d.ShardsMissing)
	}

	// The collector resets on a complete response: staleness from the
	// degraded call must not leak into the next one.
	degraded = false
	if _, err := c.Top(ctx, Page{}); err != nil {
		t.Fatal(err)
	}
	if d.ShardsMissing != 0 {
		t.Fatalf("collector ShardsMissing = %d after complete response, want 0", d.ShardsMissing)
	}
}

func TestStrictReadsSendsPartialZero(t *testing.T) {
	sawPartial := make(chan string, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case sawPartial <- r.URL.Query().Get("partial"):
		default:
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"data": map[string]any{"items": []any{}, "total": 0, "limit": 10, "offset": 0},
		})
	}))
	defer ts.Close()

	c := New(ts.URL, StrictReads())
	if _, err := c.Top(context.Background(), Page{}); err != nil {
		t.Fatal(err)
	}
	if got := <-sawPartial; got != "0" {
		t.Fatalf("strict client sent partial=%q, want 0", got)
	}
}
