// Package client is the Go SDK for the data-tamer /v1 HTTP API. It wraps
// the versioned envelope ({"data": ...} / {"error": {"code","message"}}),
// round-trips typed errors — a 404 becomes an error matching
// dterr.ErrNotFound, a 429 matches dterr.ErrBusy, and so on — honors the
// caller's context on every call, and retries idempotent reads on
// transient failures with exponential backoff.
//
// The client cooperates with the server's serving tier: a 429 carrying a
// Retry-After header reschedules the retry at the server's hint (capped,
// idempotent GETs only). It keeps no response cache of its own; the server
// caches each /v1 read once, by data generation, and still answers
// If-None-Match for any HTTP client that sends one.
//
// Cluster-mode degraded reads surface through WithDegraded: a read served
// from a cluster with unreachable shards still succeeds, and the
// collector reports how many shards were missing. StrictReads() restores
// fail-fast behavior by sending partial=0 on every GET.
//
//	c := client.New("http://localhost:8080")
//	top, err := c.Top(ctx, client.Page{Limit: 10})
//	if errors.Is(err, dterr.ErrUnavailable) { ... }
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"repro/dterr"
	"repro/internal/store"
)

// Client talks to one data-tamer server. The zero value is not usable;
// construct with New. Safe for concurrent use.
type Client struct {
	base          string
	hc            *http.Client
	retries       int
	backoff       time.Duration
	maxRetryAfter time.Duration
	apiKey        string
	strictReads   bool
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, instrumentation).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetries sets how many times idempotent GETs are retried after a
// network error or 5xx (default 2; 0 disables).
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// WithBackoff sets the base retry backoff, doubled per attempt
// (default 100ms).
func WithBackoff(d time.Duration) Option { return func(c *Client) { c.backoff = d } }

// WithRetryAfterCap bounds how long the client will honor a server's
// Retry-After hint on 429 (default 5s). A hint above the cap waits the
// cap; a non-positive cap disables 429 retries entirely.
func WithRetryAfterCap(d time.Duration) Option { return func(c *Client) { c.maxRetryAfter = d } }

// WithAPIKey sends key as X-API-Key on every request — the identity the
// server's per-client rate limiter buckets by.
func WithAPIKey(key string) Option { return func(c *Client) { c.apiKey = key } }

// StrictReads makes every GET carry partial=0: a cluster-mode server then
// fails a read outright when any shard is unreachable instead of serving
// a degraded partial result. Without it, degraded responses succeed and
// are reported through WithDegraded.
func StrictReads() Option { return func(c *Client) { c.strictReads = true } }

// New builds a client for the server at baseURL (e.g.
// "http://localhost:8080").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:          strings.TrimRight(baseURL, "/"),
		hc:            &http.Client{Timeout: 30 * time.Second},
		retries:       2,
		backoff:       100 * time.Millisecond,
		maxRetryAfter: 5 * time.Second,
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Page selects a window of a list endpoint. Limit <= 0 leaves the
// server's default in effect; Offset <= 0 starts at the beginning.
type Page struct {
	Limit  int
	Offset int
}

func (p Page) query() url.Values {
	v := url.Values{}
	if p.Limit > 0 {
		v.Set("limit", strconv.Itoa(p.Limit))
	}
	if p.Offset > 0 {
		v.Set("offset", strconv.Itoa(p.Offset))
	}
	return v
}

// List is one page of a /v1 list endpoint, with the window echoed.
type List[T any] struct {
	Items  []T `json:"items"`
	Total  int `json:"total"`
	Limit  int `json:"limit"`
	Offset int `json:"offset"`
}

// TypeCount is one row of the /v1/types distribution.
type TypeCount struct {
	Type  string `json:"Type"`
	Count int64  `json:"Count"`
}

// Discussed is one row of the /v1/top ranking.
type Discussed struct {
	Name     string `json:"Name"`
	Mentions int64  `json:"Mentions"`
}

// PricedShow is one row of the /v1/cheapest ranking.
type PricedShow struct {
	Show  string  `json:"Show"`
	Price float64 `json:"Price"`
	Raw   string  `json:"Raw"`
}

// ShowView is the /v1/show response: the Table V web-text view and the
// Table VI fused view.
type ShowView struct {
	WebText map[string]string `json:"web_text"`
	Fused   map[string]string `json:"fused"`
}

// Entity is one /v1/find result row: scalar fields of a matching document.
type Entity map[string]string

// UnmarshalJSON decodes a row as encoding/json decodes a map[string]string.
// An object whose keys and values are all plain strings — no backslash, no
// control byte, valid UTF-8 — is what a server writes for nearly every row,
// and it is read straight into a map sized for its members, each string
// copied once. Anything else, escapes and null included, goes to
// encoding/json, so its values and errors are encoding/json's.
func (e *Entity) UnmarshalJSON(data []byte) error {
	n, ok := plainObject(data, nil)
	if !ok {
		return json.Unmarshal(data, (*map[string]string)(e))
	}
	if *e == nil {
		*e = make(Entity, n)
	}
	plainObject(data, *e)
	return nil
}

// plainObject reports whether data is a JSON object of plain string members
// only, and how many members it has; given a map, it also stores them.
func plainObject(data []byte, m Entity) (int, bool) {
	i := skipSpace(data, 0)
	if i == len(data) || data[i] != '{' {
		return 0, false
	}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == '}' {
		return 0, skipSpace(data, i+1) == len(data)
	}
	for n := 1; ; n++ {
		k, j, ok := plainString(data, i)
		if !ok {
			return 0, false
		}
		if i = skipSpace(data, j); i == len(data) || data[i] != ':' {
			return 0, false
		}
		v, j, ok := plainString(data, skipSpace(data, i+1))
		if !ok {
			return 0, false
		}
		if m != nil {
			m[string(k)] = string(v)
		}
		if i = skipSpace(data, j); i == len(data) {
			return 0, false
		}
		switch data[i] {
		case ',':
			i = skipSpace(data, i+1)
		case '}':
			return n, skipSpace(data, i+1) == len(data)
		default:
			return 0, false
		}
	}
}

// plainString reads the JSON string that opens at data[i] when it is plain,
// returning its contents and the index past its closing quote.
func plainString(data []byte, i int) (s []byte, end int, ok bool) {
	if i == len(data) || data[i] != '"' {
		return nil, 0, false
	}
	ascii := true
	for j := i + 1; j < len(data); j++ {
		switch c := data[j]; {
		case c == '"':
			s = data[i+1 : j]
			return s, j + 1, ascii || utf8.Valid(s)
		case c == '\\' || c < 0x20:
			return nil, 0, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, 0, false
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\n' || data[i] == '\t' || data[i] == '\r') {
		i++
	}
	return i
}

// StoreStats mirrors the Tables I-II statistics the server reports per
// namespace (the store.Stats shape).
type StoreStats struct {
	NS             string `json:"NS"`
	Count          int64  `json:"Count"`
	NumExtents     int    `json:"NumExtents"`
	NIndexes       int    `json:"NIndexes"`
	LastExtentSize int64  `json:"LastExtentSize"`
	TotalIndexSize int64  `json:"TotalIndexSize"`
	DataSize       int64  `json:"DataSize"`
	AvgObjSize     int64  `json:"AvgObjSize"`
}

// Stats is the /v1/stats response.
type Stats struct {
	Instance StoreStats `json:"instance"`
	Entity   StoreStats `json:"entity"`
}

// Fragment is one web-text fragment for /v1/ingest/text.
type Fragment struct {
	URL  string `json:"url"`
	Text string `json:"text"`
}

// LiveStats is the /v1/live/stats response.
type LiveStats struct {
	QueueDepth    int   `json:"queue_depth"`
	QueueCapacity int   `json:"queue_capacity"`
	Pending       int   `json:"pending_events"`
	QueuedBytes   int64 `json:"queued_bytes"`

	TextEvents   int64 `json:"text_events"`
	RecordEvents int64 `json:"record_events"`
	Fragments    int64 `json:"fragments_ingested"`
	Records      int64 `json:"records_ingested"`

	Batches        int64   `json:"batches"`
	AvgBatchMs     float64 `json:"avg_batch_ms"`
	LastBatchMs    float64 `json:"last_batch_ms"`
	FusedRefreshes int64   `json:"fused_refreshes"`
	ApplyErrors    int64   `json:"apply_errors"`

	WALSizeBytes int64 `json:"wal_size_bytes"`
	WALEvents    int64 `json:"wal_events"`

	Closed    bool   `json:"closed"`
	LastError string `json:"last_error,omitempty"`
}

// ---- transport ---------------------------------------------------------

// envelope mirrors the server's uniform response shape. Data is decoded
// in the same pass as the rest, into storage of the caller's type, and is
// nil when the member is absent.
type envelope[T any] struct {
	Data     *T         `json:"data"`
	Degraded *Degraded  `json:"degraded"`
	Error    *errMember `json:"error"`
}

// errMember is the envelope's error member.
type errMember struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// bodies pools the buffers response bodies are read into. The decoded
// values copy what they keep, so a buffer is reused as soon as its body is
// decoded; one that grew past store.FrameChunk for a large body is dropped
// rather than pooled.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readEnvelope reads a response body into a pooled buffer and decodes it
// into env in one pass. err is a failure to read the body, decodeErr a
// body that does not decode.
func readEnvelope[T any](body io.Reader, env *envelope[T]) (decodeErr, err error) {
	buf := bodies.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= store.FrameChunk {
			bodies.Put(buf)
		}
	}()
	buf.Reset()
	if _, err := buf.ReadFrom(io.LimitReader(body, 64<<20)); err != nil {
		return nil, err
	}
	return json.Unmarshal(buf.Bytes(), env), nil
}

// Degraded reports a partial fan-out read: the response succeeded but
// ShardsMissing shards were unreachable, so list totals and aggregates
// are under-counts.
type Degraded struct {
	ShardsMissing int `json:"shards_missing"`
}

// degradedKeyType keys the WithDegraded collector in a context.
type degradedKeyType struct{}

var degradedKey degradedKeyType

// WithDegraded derives a context that collects degradation info for the
// calls made under it. After a successful read, the returned collector
// holds the response's degraded field (zero when the read was complete):
//
//	ctx, deg := client.WithDegraded(ctx)
//	stats, err := c.Stats(ctx)
//	if err == nil && deg.ShardsMissing > 0 { ... partial answer ... }
//
// The collector is overwritten per call; use one context per request when
// calls run concurrently.
func WithDegraded(ctx context.Context) (context.Context, *Degraded) {
	d := &Degraded{}
	return context.WithValue(ctx, degradedKey, d), d
}

// do issues one request and decodes the envelope's data into out (which
// may be nil for calls that only need success/failure). GETs are retried
// on transport errors and 5xx responses; writes are never retried.
func do[T any](ctx context.Context, c *Client, method, path string, query url.Values, body any, out *T) error {
	var encoded []byte
	if body != nil {
		var err error
		encoded, err = json.Marshal(body)
		if err != nil {
			return dterr.Wrap(dterr.CodeInvalidArgument, err)
		}
	}
	if c.strictReads && method == http.MethodGet {
		strict := url.Values{}
		for k, v := range query {
			strict[k] = v
		}
		strict.Set("partial", "0")
		query = strict
	}
	u := c.base + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	attempts := 1
	if method == http.MethodGet {
		attempts += c.retries
	}
	var lastErr error
	var waitHint time.Duration
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			// A server Retry-After hint (already capped) overrides the
			// exponential backoff for this attempt.
			wait := c.backoff << (attempt - 1)
			if waitHint > 0 {
				wait = waitHint
			}
			select {
			case <-ctx.Done():
				return dterr.FromContext(ctx.Err())
			case <-time.After(wait):
			}
		}
		retry, hint, err := once(ctx, c, method, u, encoded, out)
		if err == nil {
			return nil
		}
		lastErr = err
		waitHint = hint
		if !retry {
			return err
		}
	}
	return lastErr
}

// retryAfterHint parses a 429's Retry-After header (delta-seconds form)
// into a wait bounded by the client's cap. Zero means "no usable hint" —
// the HTTP-date form and absent headers both land there, so the caller
// falls back to not retrying.
func (c *Client) retryAfterHint(resp *http.Response) time.Duration {
	if c.maxRetryAfter <= 0 {
		return 0
	}
	secs, err := strconv.Atoi(strings.TrimSpace(resp.Header.Get("Retry-After")))
	if err != nil || secs < 0 {
		return 0
	}
	wait := time.Duration(secs) * time.Second
	if wait > c.maxRetryAfter {
		wait = c.maxRetryAfter
	}
	if wait == 0 {
		wait = c.backoff // "Retry-After: 0" means immediately; keep a floor
	}
	return wait
}

// once performs a single HTTP exchange. retry reports whether the failure
// is worth repeating (transport error, 5xx on an idempotent call, or a
// 429 with a Retry-After hint); wait is the server-suggested delay for
// that retry (0: use exponential backoff). The caller has already decided
// the method is idempotent.
func once[T any](ctx context.Context, c *Client, method, u string, body []byte, out *T) (retry bool, wait time.Duration, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return false, 0, dterr.Wrap(dterr.CodeInvalidArgument, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.apiKey != "" {
		req.Header.Set("X-API-Key", c.apiKey)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return false, 0, dterr.FromContext(ctx.Err())
		}
		return true, 0, dterr.Wrapf(dterr.CodeUnavailable, err, "request %s %s", method, u)
	}
	defer resp.Body.Close()
	var env envelope[T]
	decodeErr, err := readEnvelope(resp.Body, &env)
	if err != nil {
		return true, 0, dterr.Wrap(dterr.CodeUnavailable, err)
	}
	if resp.StatusCode >= 400 {
		if resp.StatusCode == http.StatusTooManyRequests && method == http.MethodGet {
			// Honor the server's shed hint: retry the idempotent read at
			// the suggested (capped) delay. No hint, no retry — hammering
			// an overloaded server would make the overload worse.
			if hint := c.retryAfterHint(resp); hint > 0 {
				return true, hint, busyError(u, env.Error, decodeErr)
			}
		}
		if decodeErr == nil && env.Error != nil {
			// Typed error round trip: the envelope's code is authoritative.
			// Deterministic server states (unavailable, closed) are not worth
			// retrying even though they ride on a 5xx status — only an
			// internal fault might be transient.
			code := dterr.Code(env.Error.Code)
			retryable := resp.StatusCode >= 500 && code == dterr.CodeInternal
			return retryable, 0, dterr.New(code, env.Error.Message)
		}
		code := dterr.FromHTTPStatus(resp.StatusCode)
		return resp.StatusCode >= 500, 0, dterr.Newf(code, "%s %s: HTTP %d", method, u, resp.StatusCode)
	}
	// Surface degradation to a WithDegraded collector; a complete response
	// resets it to zero.
	if d, ok := ctx.Value(degradedKey).(*Degraded); ok && decodeErr == nil {
		if env.Degraded != nil {
			*d = *env.Degraded
		} else {
			*d = Degraded{}
		}
	}
	if out == nil {
		return false, 0, nil
	}
	if decodeErr != nil {
		return false, 0, dterr.Wrapf(dterr.CodeInternal, decodeErr, "decoding response of %s %s", method, u)
	}
	if env.Data == nil {
		return false, 0, dterr.Newf(dterr.CodeInternal, "%s %s: response envelope has no data", method, u)
	}
	*out = *env.Data
	return false, 0, nil
}

// busyError renders the typed error for a 429 that will be retried.
func busyError(u string, envErr *errMember, decodeErr error) error {
	if decodeErr == nil && envErr != nil {
		return dterr.New(dterr.Code(envErr.Code), envErr.Message)
	}
	return dterr.Newf(dterr.CodeBusy, "GET %s: HTTP 429", u)
}

// getList fetches one page of a /v1 list endpoint.
func getList[T any](ctx context.Context, c *Client, path string, q url.Values) (List[T], error) {
	var out List[T]
	if err := do(ctx, c, http.MethodGet, path, q, nil, &out); err != nil {
		return List[T]{}, err
	}
	return out, nil
}

// ---- read calls --------------------------------------------------------

// Stats fetches the Tables I-II store statistics.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var out Stats
	err := do(ctx, c, http.MethodGet, "/v1/stats", nil, nil, &out)
	return out, err
}

// Types fetches one page of the Table III type distribution.
func (c *Client) Types(ctx context.Context, p Page) (List[TypeCount], error) {
	return getList[TypeCount](ctx, c, "/v1/types", p.query())
}

// Top fetches one page of the Table IV discussion ranking.
func (c *Client) Top(ctx context.Context, p Page) (List[Discussed], error) {
	return getList[Discussed](ctx, c, "/v1/top", p.query())
}

// Cheapest fetches one page of the best-price ranking.
func (c *Client) Cheapest(ctx context.Context, p Page) (List[PricedShow], error) {
	return getList[PricedShow](ctx, c, "/v1/cheapest", p.query())
}

// Find runs a filter-language query over the entity store and returns one
// page of matches.
func (c *Client) Find(ctx context.Context, query string, p Page) (List[Entity], error) {
	q := p.query()
	q.Set("q", query)
	return getList[Entity](ctx, c, "/v1/find", q)
}

// Show fetches the Table V and Table VI views of one show. An unknown
// show yields an error matching dterr.ErrNotFound.
func (c *Client) Show(ctx context.Context, name string) (ShowView, error) {
	q := url.Values{}
	q.Set("name", name)
	var out showWire
	err := do(ctx, c, http.MethodGet, "/v1/show", q, nil, &out)
	return ShowView{WebText: out.WebText, Fused: out.Fused}, err
}

// showWire is ShowView as it is decoded: the same members, each read
// through Entity's decoder.
type showWire struct {
	WebText Entity `json:"web_text"`
	Fused   Entity `json:"fused"`
}

// LiveStats fetches the live ingester's counters; on a batch-mode server
// the error matches dterr.ErrUnavailable.
func (c *Client) LiveStats(ctx context.Context) (LiveStats, error) {
	var out LiveStats
	err := do(ctx, c, http.MethodGet, "/v1/live/stats", nil, nil, &out)
	return out, err
}

// ---- write calls -------------------------------------------------------

// accepted is the write-acknowledgment payload.
type accepted struct {
	Accepted int `json:"accepted"`
}

// IngestText streams web-text fragments; the returned count is how many
// the server durably acknowledged.
func (c *Client) IngestText(ctx context.Context, frags []Fragment) (int, error) {
	if len(frags) == 0 {
		return 0, nil
	}
	var out accepted
	err := do(ctx, c, http.MethodPost, "/v1/ingest/text", nil,
		map[string]any{"fragments": frags}, &out)
	return out.Accepted, err
}

// IngestRecords streams flat structured records from one source.
func (c *Client) IngestRecords(ctx context.Context, source string, records []map[string]any) (int, error) {
	if len(records) == 0 {
		return 0, nil
	}
	var out accepted
	err := do(ctx, c, http.MethodPost, "/v1/ingest/records", nil,
		map[string]any{"source": source, "records": records}, &out)
	return out.Accepted, err
}

// Flush blocks until every acknowledged write has been applied.
func (c *Client) Flush(ctx context.Context) error {
	return do[struct{}](ctx, c, http.MethodPost, "/v1/flush", nil, nil, nil)
}

// Checkpoint drains the apply queue, snapshots state, and truncates the
// WAL.
func (c *Client) Checkpoint(ctx context.Context) error {
	q := url.Values{}
	q.Set("checkpoint", "1")
	return do[struct{}](ctx, c, http.MethodPost, "/v1/flush", q, nil, nil)
}

// String implements fmt.Stringer for diagnostics.
func (c *Client) String() string { return fmt.Sprintf("datatamer client for %s", c.base) }
