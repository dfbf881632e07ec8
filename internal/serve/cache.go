package serve

import (
	"container/list"
	"fmt"
	"hash/fnv"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/obs"
)

// Response caching for the read-only /v1 GET routes.
//
// The cache key is (path, raw query, data generation): the fused-view /
// entity-store generation bump that already happens on every ingest is
// the invalidation signal, so a cached body can never survive the write
// that would change it. Pagination and filter parameters are part of the
// raw query and therefore of the key. ETags are strong and derived from
// the same pair — "<fnv64(path?query)>-<generation>" — which makes
// If-None-Match revalidation a pure computation: if the client's tag
// matches the tag the URL would get right now, nothing changed since the
// client cached it, and a 304 is correct even when the body itself has
// been evicted.
//
// Entries are LRU-evicted under a byte budget. Only 200 responses are
// stored: errors are cheap to recompute and caching them would pin
// transient failures.

// defaultCacheBytes is the response-cache budget when caching is enabled
// without an explicit size.
const defaultCacheBytes = 32 << 20

// maxCacheEntryBytes bounds one cached body so a single huge response
// cannot evict the whole working set.
const maxCacheEntryBytes = 4 << 20

// cacheableV1 is the read-only /v1 route set served from the cache.
// /v1/live/stats is deliberately absent: queue depths and batch latencies
// change without a data-generation bump.
var cacheableV1 = map[string]bool{
	"/v1/stats":    true,
	"/v1/types":    true,
	"/v1/top":      true,
	"/v1/cheapest": true,
	"/v1/find":     true,
	"/v1/show":     true,
}

// cacheEntry is one stored response.
type cacheEntry struct {
	key   string
	ctype string
	etag  string
	body  []byte
}

// respCache is a byte-bounded LRU over rendered responses.
type respCache struct {
	maxBytes int64

	mu      sync.Mutex
	bytes   int64
	ll      *list.List // front = most recent; values are *cacheEntry
	entries map[string]*list.Element

	hits, misses, revalidations, evictions *obs.Counter
	sizeBytes, sizeEntries                 *obs.Gauge
}

func newRespCache(maxBytes int64, reg *obs.Registry) *respCache {
	return &respCache{
		maxBytes: maxBytes,
		ll:       list.New(),
		entries:  make(map[string]*list.Element),
		hits: reg.Counter("dt_cache_hits_total",
			"Responses served from the /v1 response cache.").With(),
		misses: reg.Counter("dt_cache_misses_total",
			"Cacheable requests that had to recompute.").With(),
		revalidations: reg.Counter("dt_cache_revalidations_total",
			"Conditional requests answered 304 Not Modified.").With(),
		evictions: reg.Counter("dt_cache_evictions_total",
			"Entries evicted by the LRU byte budget.").With(),
		sizeBytes:   reg.Gauge("dt_cache_bytes", "Bytes held by the response cache.").With(),
		sizeEntries: reg.Gauge("dt_cache_entries", "Entries held by the response cache.").With(),
	}
}

// cacheKey renders the storage key for one URL at one generation.
func cacheKey(path, rawQuery string, gen uint64) string {
	return path + "?" + rawQuery + "@" + strconv.FormatUint(gen, 10)
}

// etagFor computes the strong validator for one URL at one generation.
func etagFor(path, rawQuery string, gen uint64) string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(path))
	_, _ = h.Write([]byte{'?'})
	_, _ = h.Write([]byte(rawQuery))
	return fmt.Sprintf("\"%x-%d\"", h.Sum64(), gen)
}

// get returns the cached entry for key, refreshing its recency.
func (c *respCache) get(key string) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry), true
}

// put stores one rendered response, evicting LRU entries past the byte
// budget. Oversized bodies are skipped.
func (c *respCache) put(e *cacheEntry) {
	n := int64(len(e.body)) + int64(len(e.key))
	if n > maxCacheEntryBytes || n > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[e.key]; ok {
		// A concurrent request for the same URL raced us here; keep the
		// existing entry, which is equally fresh (same generation key).
		c.ll.MoveToFront(el)
		return
	}
	c.entries[e.key] = c.ll.PushFront(e)
	c.bytes += n
	for c.bytes > c.maxBytes {
		back := c.ll.Back()
		if back == nil {
			break
		}
		old := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.entries, old.key)
		c.bytes -= int64(len(old.body)) + int64(len(old.key))
		c.evictions.Inc()
	}
	c.sizeBytes.Set(c.bytes)
	c.sizeEntries.Set(int64(c.ll.Len()))
}

// recordingWriter tees a response into memory while streaming it to the
// client, so a miss can populate the cache without double-rendering. The
// copy it keeps is the cache entry's body: a handler writes its body in
// one Write, which the copy is sized for, and the caller's buffer — a
// pooled one, reused by the next request — is never kept. Buffering stops
// past maxCacheEntryBytes; the response still streams.
type recordingWriter struct {
	http.ResponseWriter
	status int
	body   []byte
	tooBig bool
}

func (w *recordingWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *recordingWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if !w.tooBig {
		if len(w.body)+len(p) > maxCacheEntryBytes {
			w.tooBig = true
			w.body = nil
		} else {
			w.body = append(w.body, p...)
		}
	}
	return w.ResponseWriter.Write(p)
}

// cacheMiddleware serves the cacheable /v1 GET routes from the response
// cache with ETag revalidation.
func (s *Server) cacheMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet || !cacheableV1[r.URL.Path] {
			next.ServeHTTP(w, r)
			return
		}
		// One generation read per request: the key, the ETag, and the
		// store below all use this value, so a write landing mid-request
		// can make us cache a fresher body under the older generation
		// (harmless — that key dies with the bump) but never a stale body
		// under the newer one.
		gen := s.opts.generation()
		path, rawQuery := r.URL.Path, r.URL.RawQuery
		etag := etagFor(path, rawQuery, gen)

		if match := r.Header.Get("If-None-Match"); match != "" && etagMatch(match, etag) {
			s.cache.revalidations.Inc()
			s.cache.hits.Inc()
			w.Header().Set("ETag", etag)
			w.Header().Set("X-Cache", "REVALIDATED")
			w.WriteHeader(http.StatusNotModified)
			return
		}

		key := cacheKey(path, rawQuery, gen)
		if e, ok := s.cache.get(key); ok {
			s.cache.hits.Inc()
			w.Header().Set("Content-Type", e.ctype)
			w.Header().Set("ETag", e.etag)
			w.Header().Set("X-Cache", "HIT")
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(e.body)
			return
		}

		s.cache.misses.Inc()
		w.Header().Set("ETag", etag)
		w.Header().Set("X-Cache", "MISS")
		rw := &recordingWriter{ResponseWriter: w}
		next.ServeHTTP(rw, r)
		// A no-store body (a degraded read, see markDegraded) is an answer
		// for this request only: the generation key does not change when a
		// node comes back, so caching it would serve the hole after a heal.
		if rw.status == http.StatusOK && !rw.tooBig && !strings.Contains(rw.Header().Get("Cache-Control"), "no-store") {
			s.cache.put(&cacheEntry{
				key:   key,
				ctype: rw.Header().Get("Content-Type"),
				etag:  etag,
				body:  rw.body,
			})
		}
	})
}

// etagMatch implements the If-None-Match comparison: a comma-separated
// candidate list or "*", with weak validators (W/ prefix) compared by
// opaque tag — the weak comparison is allowed for If-None-Match.
func etagMatch(header, etag string) bool {
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		if part == "*" {
			return true
		}
		part = strings.TrimPrefix(part, "W/")
		if part == etag {
			return true
		}
	}
	return false
}
