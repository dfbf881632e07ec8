package serve

import (
	"context"
	"net/http"
	"sync"
	"testing"

	"repro/dterr"
	"repro/internal/fuse"
	"repro/internal/record"
	"repro/internal/store"
)

// partialQuerier simulates a fan-out read over a cluster with missing
// shards: it absorbs `missing` shard failures into the request's partial
// tracker when one is installed, and fails outright (the strict path)
// when it is not.
type partialQuerier struct {
	Querier
	mu      sync.Mutex
	missing int
}

func (p *partialQuerier) setMissing(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.missing = n
}

// fanOut fails the missing shards, absorbed or not.
func (p *partialQuerier) fanOut(ctx context.Context) error {
	p.mu.Lock()
	n := p.missing
	p.mu.Unlock()
	for i := 0; i < n; i++ {
		if !store.AbsorbShardError(ctx, "dt.entity", i, dterr.ErrBusy) {
			return dterr.ErrBusy
		}
	}
	return nil
}

func (p *partialQuerier) TopDiscussed(ctx context.Context, _ int) ([]fuse.Discussed, error) {
	if err := p.fanOut(ctx); err != nil {
		return nil, err
	}
	return []fuse.Discussed{{Name: "Matilda", Mentions: 7}}, nil
}

// QueryShow finds no text about any show on the shards it reaches.
func (p *partialQuerier) QueryShow(ctx context.Context, show string) (web, fused *record.Record, err error) {
	if err := p.fanOut(ctx); err != nil {
		return nil, nil, err
	}
	web = record.New()
	web.Set("SHOW_NAME", record.String(show))
	return web, web, nil
}

func (p *partialQuerier) ShowInFused(context.Context, string) (bool, error) { return false, nil }

func TestV1DegradedRead(t *testing.T) {
	q := &partialQuerier{missing: 2}
	s := New(q)

	rec, body := get(t, s, "/v1/top")
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded read status = %d, want 200: %v", rec.Code, body)
	}
	if got := rec.Header().Get("X-DT-Degraded"); got != "shards_missing=2" {
		t.Fatalf("X-DT-Degraded = %q, want shards_missing=2", got)
	}
	if cc := rec.Header().Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("Cache-Control = %q, want no-store on a partial body", cc)
	}
	deg, ok := body["degraded"].(map[string]any)
	if !ok {
		t.Fatalf("degraded envelope field missing: %v", body)
	}
	if deg["shards_missing"] != float64(2) {
		t.Fatalf("degraded.shards_missing = %v, want 2", deg["shards_missing"])
	}
	if body["data"] == nil {
		t.Fatal("degraded response dropped its partial data")
	}
}

func TestV1DegradedStrictOptOut(t *testing.T) {
	q := &partialQuerier{missing: 1}
	s := New(q)

	// ?partial=0 restores whole-or-nothing: no tracker installed, the
	// shard failure propagates, and the busy taxonomy maps to 429.
	rec, body := get(t, s, "/v1/top?partial=0")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("strict read status = %d, want 429: %v", rec.Code, body)
	}
	if rec.Header().Get("X-DT-Degraded") != "" {
		t.Fatal("strict failure carried a degraded header")
	}

	// A malformed partial parameter is a client error, not a silent default.
	if rec, _ := get(t, s, "/v1/top?partial=maybe"); rec.Code != http.StatusBadRequest {
		t.Fatalf("partial=maybe status = %d, want 400", rec.Code)
	}
}

func TestV1CompleteReadHasNoDegradedField(t *testing.T) {
	q := &partialQuerier{}
	s := New(q)
	rec, body := get(t, s, "/v1/top")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if _, present := body["degraded"]; present {
		t.Fatalf("complete response carries a degraded field: %v", body)
	}
	if rec.Header().Get("X-DT-Degraded") != "" {
		t.Fatal("complete response carries the degraded header")
	}
}

// TestDegradedResponseNotCached: with the generation-keyed response
// cache enabled, a degraded (partial) body must not be stored — the
// generation does not bump when a node heals, so a cached hole would be
// served forever.
func TestDegradedResponseNotCached(t *testing.T) {
	q := &partialQuerier{missing: 3}
	s := New(q, WithGeneration(func() uint64 { return 1 }), WithCacheBytes(1<<20))

	rec, _ := get(t, s, "/v1/top")
	if rec.Code != http.StatusOK || rec.Header().Get("X-DT-Degraded") == "" {
		t.Fatalf("degraded read = %d, header %q", rec.Code, rec.Header().Get("X-DT-Degraded"))
	}
	if rec.Header().Get("ETag") != "" {
		t.Fatalf("degraded response carries ETag %q; clients would revalidate a hole forever", rec.Header().Get("ETag"))
	}

	// The shards "heal"; the same URL at the same generation must now be
	// recomputed (a MISS, not a HIT on the partial body).
	q.setMissing(0)
	rec2, body := get(t, s, "/v1/top")
	if rec2.Code != http.StatusOK {
		t.Fatalf("healed read = %d", rec2.Code)
	}
	if rec2.Header().Get("X-Cache") == "HIT" {
		t.Fatal("healed read served from cache — the degraded body was stored")
	}
	if _, present := body["degraded"]; present {
		t.Fatalf("healed read still degraded: %v", body)
	}
	if rec2.Header().Get("ETag") == "" {
		t.Fatal("healed complete response lost its ETag")
	}

	// And the complete body IS cached: third request is a HIT.
	rec3, _ := get(t, s, "/v1/top")
	if rec3.Header().Get("X-Cache") != "HIT" {
		t.Fatalf("complete response not cached (X-Cache = %q)", rec3.Header().Get("X-Cache"))
	}
}

// TestDegradedNotFound: a 404 computed while shards were unreachable may be
// wrong once they are back, so it is marked like a degraded read — the
// header, no ETag, no-store — and a complete 404 is not.
func TestDegradedNotFound(t *testing.T) {
	q := &partialQuerier{missing: 1}
	s := New(q, WithGeneration(func() uint64 { return 1 }), WithCacheBytes(1<<20))
	rec, body := get(t, s, "/v1/show?name=Nowhere")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("degraded miss = %d, want 404: %v", rec.Code, body)
	}
	if got := rec.Header().Get("X-DT-Degraded"); got != "shards_missing=1" {
		t.Fatalf("X-DT-Degraded = %q, want shards_missing=1", got)
	}
	if cc, etag := rec.Header().Get("Cache-Control"), rec.Header().Get("ETag"); cc != "no-store" || etag != "" {
		t.Fatalf("degraded 404 has Cache-Control %q, ETag %q; want no-store and none", cc, etag)
	}
	q.setMissing(0)
	rec, _ = get(t, s, "/v1/show?name=Nowhere")
	if rec.Code != http.StatusNotFound || rec.Header().Get("X-DT-Degraded") != "" || rec.Header().Get("Cache-Control") != "" {
		t.Fatalf("complete 404: status %d, headers %v", rec.Code, rec.Header())
	}
}
