// Package serve exposes a fused pipeline over HTTP — the integration
// surface a deployment of this system would offer. The server depends
// only on the Querier/Ingestor interfaces below, so any pipeline
// implementation (or a test double) can sit behind it.
//
// Versioned API (/v1): every response is the uniform envelope
//
//	{"data": ...}                                  on success
//	{"error": {"code": "...", "message": "..."}}   on failure
//
// where error.code is a dterr code and the HTTP status is derived from it
// (invalid_argument→400, not_found→404, busy→429, closed/unavailable→503,
// canceled→499, deadline_exceeded→504). List endpoints paginate with
// limit/offset and echo items/total/limit/offset inside data. Handlers
// run under the request context, so client disconnects cancel server-side
// work.
//
// Degraded reads: in cluster mode a fan-out read whose shards are partly
// unreachable returns the surviving shards' data with a
// "degraded": {"shards_missing": N} envelope field and an X-DT-Degraded
// header instead of failing. ?partial=0 restores strict semantics (any
// unreachable shard fails the request). Degraded responses carry no ETag
// and are never cached.
//
//	GET  /v1/stats                    Tables I-II store statistics
//	GET  /v1/types?limit=&offset=     Table III type distribution
//	GET  /v1/top?limit=&offset=       Table IV discussion ranking
//	GET  /v1/cheapest?limit=&offset=  best-price ranking over the fused table
//	GET  /v1/find?q=&limit=&offset=   filter-language query over entities
//	GET  /v1/show?name=Matilda        Table V + Table VI views (404 unknown)
//	POST /v1/ingest/text              WAL-durable web-text ingestion (202)
//	POST /v1/ingest/records           WAL-durable structured records (202)
//	POST /v1/flush[?checkpoint=1]     drain apply queue / snapshot + truncate
//	GET  /v1/live/stats               queue depth, batch latency, WAL size
//
// Production serving middleware (opt-in through ServerOptions) wraps the
// whole route tree: per-route metrics
// (internal/obs, exposed at GET /metrics), per-client token-bucket rate
// limiting, queue-depth admission control shedding with 429 +
// Retry-After, and a data-generation-keyed response cache with strong
// ETags and If-None-Match revalidation for the read-only /v1 GET routes.
// See middleware.go and cache.go.
package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"

	"repro/dterr"
	"repro/internal/core"
	"repro/internal/fuse"
	"repro/internal/ingest"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/store"
)

// Querier is the read surface the server needs from a pipeline.
type Querier interface {
	InstanceStatsCtx(ctx context.Context) (store.Stats, error)
	EntityStatsCtx(ctx context.Context) (store.Stats, error)
	EntityTypeCounts(ctx context.Context) ([]core.TypeCount, error)
	TopDiscussed(ctx context.Context, k int) ([]fuse.Discussed, error)
	QueryShow(ctx context.Context, show string) (web, fused *record.Record, err error)
	ShowInFused(ctx context.Context, show string) (bool, error)
	CheapestShows(ctx context.Context, k int) ([]fuse.PricedShow, error)
	QueryEntities(ctx context.Context, query string, q store.Query) (store.Result, error)
}

// Ingestor is the write surface the server needs in live mode.
type Ingestor interface {
	IngestText(ctx context.Context, frags []live.Fragment) error
	IngestRecords(ctx context.Context, source string, recs []*record.Record) error
	Flush(ctx context.Context) error
	Checkpoint(ctx context.Context) error
	Stats() live.Stats
}

// The concrete pipeline satisfies both interfaces.
var (
	_ Querier  = (*core.Tamer)(nil)
	_ Ingestor = (*live.Ingester)(nil)
)

// Server wraps a completed pipeline run, optionally with a live ingester.
type Server struct {
	q   Querier
	ing Ingestor // nil in read-only (batch) mode
	mux *http.ServeMux

	opts    serverOpts
	routes  map[string]bool // registered paths, for bounded metric labels
	handler http.Handler    // mux wrapped in the middleware chain

	cache          *respCache   // nil when caching is off
	limiter        *rateLimiter // nil when rate limiting is off
	adm            *admission   // nil when admission control is off
	admissionDrops *obs.CounterVec
}

// New builds a read-only server over an already-run pipeline.
func New(q Querier, opts ...ServerOption) *Server { return NewLive(q, nil, opts...) }

// NewLive builds a server over a pipeline with streaming writes enabled
// through ing; a nil ingester serves the write endpoints as unavailable.
// Pass an untyped nil (or use New) — a typed nil pointer in a non-nil
// interface would slip past the availability check.
func NewLive(q Querier, ing Ingestor, opts ...ServerOption) *Server {
	s := &Server{q: q, ing: ing, mux: http.NewServeMux()}
	for _, opt := range opts {
		opt(&s.opts)
	}

	// Liveness probe: process is up and serving. Unversioned by convention
	// (load balancers and the cluster's dtnode expose the same path).
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})

	// Versioned surface.
	s.mux.HandleFunc("GET /v1/stats", s.v1Stats)
	s.mux.HandleFunc("GET /v1/types", s.v1Types)
	s.mux.HandleFunc("GET /v1/top", s.v1Top)
	s.mux.HandleFunc("GET /v1/cheapest", s.v1Cheapest)
	s.mux.HandleFunc("GET /v1/find", s.v1Find)
	s.mux.HandleFunc("GET /v1/show", s.v1Show)
	s.mux.HandleFunc("POST /v1/ingest/text", s.v1IngestText)
	s.mux.HandleFunc("POST /v1/ingest/records", s.v1IngestRecords)
	s.mux.HandleFunc("POST /v1/flush", s.v1Flush)
	s.mux.HandleFunc("GET /v1/live/stats", s.v1LiveStats)

	s.routes = map[string]bool{
		"/healthz": true, "/metrics": true,
		"/v1/stats": true, "/v1/types": true, "/v1/top": true,
		"/v1/cheapest": true, "/v1/find": true, "/v1/show": true,
		"/v1/ingest/text": true, "/v1/ingest/records": true,
		"/v1/flush": true, "/v1/live/stats": true,
	}
	s.assembleChain()
	return s
}

// assembleChain wraps the mux in the configured middleware, outermost
// last in this function: metrics → rate limit → cache → admission → mux.
// Every request, routed or not, passes through the same chain.
func (s *Server) assembleChain() {
	if s.opts.reg != nil {
		s.mux.Handle("GET /metrics", s.opts.reg.Handler())
		if s.opts.pprof {
			obs.RegisterPprof(s.mux)
		}
	}

	h := http.Handler(s.mux)
	if s.opts.maxActive > 0 {
		s.adm = newAdmission(s.opts.maxActive, s.opts.maxQueue)
		h = s.admissionMiddleware(h)
	}
	cacheBytes := s.opts.cacheBytes
	if cacheBytes == 0 {
		cacheBytes = defaultCacheBytes
	}
	if s.opts.generation != nil && cacheBytes > 0 {
		// Cache counters register even without an exposed registry so the
		// middleware never nil-checks them; they surface on /metrics only
		// when WithMetrics is configured.
		reg := s.opts.reg
		if reg == nil {
			reg = obs.NewRegistry()
		}
		s.cache = newRespCache(cacheBytes, reg)
		h = s.cacheMiddleware(h)
	}
	if s.opts.rate > 0 {
		s.limiter = newRateLimiter(s.opts.rate, s.opts.burst)
		h = s.rateLimitMiddleware(h)
	}
	if s.opts.reg != nil {
		s.admissionDrops = s.opts.reg.Counter("dt_admission_dropped_total",
			"Requests shed before handler work, by route and reason (rate|queue).",
			"route", "reason")
		h = obs.NewHTTPMetrics(s.opts.reg).Middleware(s.routeLabel, h)
	}
	s.handler = h
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// ---- envelope and helpers ---------------------------------------------

// envelope is the uniform /v1 response shape. Degraded appears only on
// partial fan-out reads: some shards were unreachable and the data field
// is an explicit under-count, not the full answer.
type envelope struct {
	Data     any           `json:"data,omitempty"`
	Degraded *degradedInfo `json:"degraded,omitempty"`
	Error    *errBody      `json:"error,omitempty"`
}

// degradedInfo quantifies a partial read.
type degradedInfo struct {
	ShardsMissing int `json:"shards_missing"`
}

type errBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeData wraps v in the success envelope.
func writeData(w http.ResponseWriter, status int, v any) {
	writeJSON(w, status, envelope{Data: v})
}

// writeErr maps a typed error to its status and the error envelope.
func writeErr(w http.ResponseWriter, err error) {
	code := dterr.CodeOf(err)
	writeJSON(w, dterr.HTTPStatus(code), envelope{Error: &errBody{Code: string(code), Message: err.Error()}})
}

// degradedHeader is set (value "shards_missing=N") on any response
// assembled from a partial fan-out, so callers and middleware can detect
// degradation without parsing the body.
const degradedHeader = "X-DT-Degraded"

// readCtx prepares a /v1 read handler's context. By default fan-out reads
// tolerate unreachable shards (degraded partial results); ?partial=0
// opts back into strict all-shards-or-error semantics, in which case the
// returned tracker is nil.
func readCtx(r *http.Request) (context.Context, *store.PartialReads, error) {
	ctx := r.Context()
	if raw := r.URL.Query().Get("partial"); raw != "" {
		ok, err := strconv.ParseBool(raw)
		if err != nil {
			return ctx, nil, dterr.Newf(dterr.CodeInvalidArgument, "parameter \"partial\": %q is not a boolean", raw)
		}
		if !ok {
			return ctx, nil, nil
		}
	}
	ctx, pr := store.WithPartialReads(ctx)
	return ctx, pr, nil
}

// markDegraded flags a response assembled while n shards were unreachable:
// the X-DT-Degraded header, no ETag and Cache-Control: no-store. It is the
// one rule that keeps a partial answer out of every cache — the response
// cache refuses no-store bodies, and a client holding no validator cannot
// revalidate one — so a healed cluster is never answered with the hole.
func markDegraded(w http.ResponseWriter, n int) {
	h := w.Header()
	h.Set(degradedHeader, "shards_missing="+strconv.Itoa(n))
	h.Del("ETag")
	h.Set("Cache-Control", "no-store")
}

// writeRead writes a /v1 read response, surfacing degradation: when the
// tracker recorded missing shards the envelope carries the degraded field
// and the response is marked degraded.
func writeRead(w http.ResponseWriter, pr *store.PartialReads, status int, v any) {
	if n := pr.Missing(); n > 0 {
		markDegraded(w, n)
		writeJSON(w, status, envelope{Data: v, Degraded: &degradedInfo{ShardsMissing: n}})
		return
	}
	writeJSON(w, status, envelope{Data: v})
}

// strictIntParam reads a numeric query parameter, returning an
// invalid-argument error on malformed or negative values.
func strictIntParam(r *http.Request, name string, def int) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil {
		return 0, dterr.Newf(dterr.CodeInvalidArgument, "parameter %q: %q is not an integer", name, raw)
	}
	if n < 0 {
		return 0, dterr.Newf(dterr.CodeInvalidArgument, "parameter %q: must be >= 0, got %d", name, n)
	}
	return n, nil
}

// maxPageLimit bounds one page so a single request cannot serialize an
// unbounded result set.
const maxPageLimit = 1000

// pageList is the data payload of every /v1 list endpoint.
type pageList struct {
	Items  any `json:"items"`
	Total  int `json:"total"`
	Limit  int `json:"limit"`
	Offset int `json:"offset"`
}

// pageParams reads limit/offset with strict parsing. An absent limit uses
// defLimit; limit=0 is an explicit empty page (total still reported).
func pageParams(r *http.Request, defLimit int) (limit, offset int, err error) {
	limit, err = strictIntParam(r, "limit", defLimit)
	if err != nil {
		return 0, 0, err
	}
	if limit > maxPageLimit {
		return 0, 0, dterr.Newf(dterr.CodeInvalidArgument, "parameter \"limit\": must be <= %d, got %d", maxPageLimit, limit)
	}
	offset, err = strictIntParam(r, "offset", 0)
	if err != nil {
		return 0, 0, err
	}
	return limit, offset, nil
}

// paginate slices items to the requested window. Offsets past the end
// yield an empty page with the true total.
func paginate[T any](items []T, limit, offset int) pageList {
	total := len(items)
	if offset > total {
		offset = total
	}
	end := offset + limit
	if end > total {
		end = total
	}
	window := items[offset:end]
	if window == nil {
		window = []T{}
	}
	return pageList{Items: window, Total: total, Limit: limit, Offset: offset}
}

func recordMap(rec *record.Record) map[string]string {
	out := make(map[string]string, rec.Len())
	for _, f := range rec.Fields() {
		if !f.Value.IsNull() {
			out[f.Name] = f.Value.Str()
		}
	}
	return out
}

func docMap(d *store.Doc) map[string]string {
	m := map[string]string{}
	for _, fieldName := range d.Names() {
		v, _ := d.Get(fieldName)
		if v.IsScalar() {
			m[fieldName] = v.Scalar().Str()
		}
	}
	return m
}

// ---- /v1 read handlers -------------------------------------------------

func (s *Server) v1Stats(w http.ResponseWriter, r *http.Request) {
	ctx, pr, err := readCtx(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	inst, err := s.q.InstanceStatsCtx(ctx)
	if err != nil {
		writeErr(w, err)
		return
	}
	ent, err := s.q.EntityStatsCtx(ctx)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeRead(w, pr, http.StatusOK, map[string]store.Stats{
		"instance": inst,
		"entity":   ent,
	})
}

func (s *Server) v1Types(w http.ResponseWriter, r *http.Request) {
	limit, offset, err := pageParams(r, 50)
	if err != nil {
		writeErr(w, err)
		return
	}
	ctx, pr, err := readCtx(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	rows, err := s.q.EntityTypeCounts(ctx)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeRead(w, pr, http.StatusOK, paginate(rows, limit, offset))
}

func (s *Server) v1Top(w http.ResponseWriter, r *http.Request) {
	limit, offset, err := pageParams(r, 10)
	if err != nil {
		writeErr(w, err)
		return
	}
	ctx, pr, err := readCtx(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	rows, err := s.q.TopDiscussed(ctx, 0) // full ranking, then page
	if err != nil {
		writeErr(w, err)
		return
	}
	writeRead(w, pr, http.StatusOK, paginate(rows, limit, offset))
}

func (s *Server) v1Cheapest(w http.ResponseWriter, r *http.Request) {
	limit, offset, err := pageParams(r, 10)
	if err != nil {
		writeErr(w, err)
		return
	}
	ctx, pr, err := readCtx(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	rows, err := s.q.CheapestShows(ctx, 0)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeRead(w, pr, http.StatusOK, paginate(rows, limit, offset))
}

func (s *Server) v1Find(w http.ResponseWriter, r *http.Request) {
	limit, offset, err := pageParams(r, 10)
	if err != nil {
		writeErr(w, err)
		return
	}
	q := r.URL.Query().Get("q")
	if q == "" {
		writeErr(w, dterr.New(dterr.CodeInvalidArgument, "missing q parameter"))
		return
	}
	ctx, pr, err := readCtx(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	res, err := s.q.QueryEntities(ctx, q, store.Query{Offset: offset, Limit: limit})
	if err != nil {
		writeErr(w, err)
		return
	}
	// Only the window is rendered; the total and the echoed offset are what
	// paginate reports over the whole match list.
	items := make([]map[string]string, len(res.Docs))
	for i, d := range res.Docs {
		items[i] = docMap(d)
	}
	total := int(res.Total)
	writeRead(w, pr, http.StatusOK, pageList{Items: items, Total: total, Limit: limit, Offset: min(offset, total)})
}

// showView is the JSON rendering of the Table V / Table VI records.
type showView struct {
	WebText map[string]string `json:"web_text"`
	Fused   map[string]string `json:"fused"`
}

func (s *Server) v1Show(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		writeErr(w, dterr.New(dterr.CodeInvalidArgument, "missing name parameter"))
		return
	}
	ctx, pr, err := readCtx(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	// One combined query: the web-text view is computed once and shared by
	// both halves of the response instead of re-running the text search.
	web, fused, err := s.q.QueryShow(ctx, name)
	if err != nil {
		writeErr(w, err)
		return
	}
	// Unknown show: no text evidence and no fused-table record. The
	// existence check is independent of field counts, so a fused record
	// that happens to add nothing beyond SHOW_NAME still counts as found.
	if !web.Has("TEXT_FEED") {
		inFused, err := s.q.ShowInFused(ctx, name)
		if err != nil {
			writeErr(w, err)
			return
		}
		if !inFused {
			// A 404 computed while text shards were unreachable is
			// advisory, not authoritative: flag it so callers can retry
			// rather than conclude the show does not exist.
			if n := pr.Missing(); n > 0 {
				markDegraded(w, n)
			}
			writeErr(w, dterr.Newf(dterr.CodeNotFound, "show %q not found in web text or fused sources", name))
			return
		}
	}
	writeRead(w, pr, http.StatusOK, showView{WebText: recordMap(web), Fused: recordMap(fused)})
}

// ---- /v1 write handlers ------------------------------------------------

// errLiveDisabled is the batch-mode rejection for write endpoints.
var errLiveDisabled = dterr.New(dterr.CodeUnavailable, "live ingestion disabled; restart with --live")

// maxIngestBody bounds one write request (8 MB) so a single oversized body
// cannot bypass the event-count backpressure of the apply queue.
const maxIngestBody = 8 << 20

// ingestTextRequest is the POST /ingest/text body.
type ingestTextRequest struct {
	Fragments []struct {
		URL  string `json:"url"`
		Text string `json:"text"`
	} `json:"fragments"`
}

// parseIngestText decodes and validates a text-ingestion body.
func parseIngestText(w http.ResponseWriter, r *http.Request) ([]live.Fragment, error) {
	var req ingestTextRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxIngestBody)).Decode(&req); err != nil {
		return nil, dterr.Wrapf(dterr.CodeInvalidArgument, err, "decoding body")
	}
	if len(req.Fragments) == 0 {
		return nil, dterr.New(dterr.CodeInvalidArgument, "no fragments in request")
	}
	frags := make([]live.Fragment, len(req.Fragments))
	for i, f := range req.Fragments {
		if f.Text == "" {
			return nil, dterr.New(dterr.CodeInvalidArgument, "fragment with empty text")
		}
		frags[i] = live.Fragment{URL: f.URL, Text: f.Text}
	}
	return frags, nil
}

func (s *Server) v1IngestText(w http.ResponseWriter, r *http.Request) {
	if s.ing == nil {
		writeErr(w, errLiveDisabled)
		return
	}
	frags, err := parseIngestText(w, r)
	if err != nil {
		writeErr(w, err)
		return
	}
	if err := s.ing.IngestText(r.Context(), frags); err != nil {
		writeErr(w, err)
		return
	}
	writeData(w, http.StatusAccepted, map[string]int{"accepted": len(frags)})
}

// ingestRecordsRequest is the POST /ingest/records body: flat JSON objects,
// each one ingest.RecordFromMap row.
type ingestRecordsRequest struct {
	Source  string           `json:"source"`
	Records []map[string]any `json:"records"`
}

// parseIngestRecords decodes and validates a record-ingestion body.
func parseIngestRecords(w http.ResponseWriter, r *http.Request) (string, []*record.Record, error) {
	var req ingestRecordsRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxIngestBody)).Decode(&req); err != nil {
		return "", nil, dterr.Wrapf(dterr.CodeInvalidArgument, err, "decoding body")
	}
	if req.Source == "" {
		return "", nil, dterr.New(dterr.CodeInvalidArgument, "missing source")
	}
	if len(req.Records) == 0 {
		return "", nil, dterr.New(dterr.CodeInvalidArgument, "no records in request")
	}
	recs := make([]*record.Record, len(req.Records))
	for i, row := range req.Records {
		rec, err := ingest.RecordFromMap(row)
		if err != nil {
			return "", nil, dterr.Wrap(dterr.CodeInvalidArgument, err)
		}
		recs[i] = rec
	}
	return req.Source, recs, nil
}

func (s *Server) v1IngestRecords(w http.ResponseWriter, r *http.Request) {
	if s.ing == nil {
		writeErr(w, errLiveDisabled)
		return
	}
	source, recs, err := parseIngestRecords(w, r)
	if err != nil {
		writeErr(w, err)
		return
	}
	if err := s.ing.IngestRecords(r.Context(), source, recs); err != nil {
		writeErr(w, err)
		return
	}
	writeData(w, http.StatusAccepted, map[string]int{"accepted": len(recs)})
}

func (s *Server) v1Flush(w http.ResponseWriter, r *http.Request) {
	if s.ing == nil {
		writeErr(w, errLiveDisabled)
		return
	}
	raw := r.URL.Query().Get("checkpoint")
	checkpoint := false
	if raw != "" {
		var err error
		checkpoint, err = strconv.ParseBool(raw)
		if err != nil {
			writeErr(w, dterr.Newf(dterr.CodeInvalidArgument, "parameter \"checkpoint\": %q is not a boolean", raw))
			return
		}
	}
	op := "flush"
	var err error
	if checkpoint {
		op, err = "checkpoint", s.ing.Checkpoint(r.Context()) // Checkpoint flushes internally
	} else {
		err = s.ing.Flush(r.Context())
	}
	if err != nil {
		writeErr(w, err)
		return
	}
	writeData(w, http.StatusOK, map[string]string{"status": op + " complete"})
}

func (s *Server) v1LiveStats(w http.ResponseWriter, _ *http.Request) {
	if s.ing == nil {
		writeErr(w, errLiveDisabled)
		return
	}
	writeData(w, http.StatusOK, s.ing.Stats())
}
