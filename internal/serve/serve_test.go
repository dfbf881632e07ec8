package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/dterr"
	"repro/internal/core"
	"repro/internal/fuse"
	"repro/internal/live"
	"repro/internal/store"
)

var (
	srvOnce sync.Once
	srv     *Server
	srvErr  error
)

func testServer(t *testing.T) *Server {
	t.Helper()
	srvOnce.Do(func() {
		tm := core.New(core.Config{Fragments: 300, FTSources: 5, Seed: 6})
		if srvErr = tm.Run(context.Background()); srvErr == nil {
			srv = New(tm)
		}
	})
	if srvErr != nil {
		t.Fatal(srvErr)
	}
	return srv
}

func get(t *testing.T, s *Server, path string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var body map[string]any
	if strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") {
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			body = nil
		}
	}
	return rec, body
}

// ---- /v1 reads ----------------------------------------------------------

func TestStatsEndpoint(t *testing.T) {
	s := testServer(t)
	code, data, _ := v1Get(t, s, "/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	inst, ok := data["instance"].(map[string]any)
	if !ok {
		t.Fatalf("data = %v", data)
	}
	if inst["Count"].(float64) != 300 {
		t.Errorf("instance count = %v", inst["Count"])
	}
	ent := data["entity"].(map[string]any)
	if ent["NIndexes"].(float64) != 8 {
		t.Errorf("entity indexes = %v", ent["NIndexes"])
	}
}

func TestTypesEndpoint(t *testing.T) {
	s := testServer(t)
	code, data, _ := v1Get(t, s, "/v1/types")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if rows := data["items"].([]any); len(rows) < 10 {
		t.Errorf("type rows = %d", len(rows))
	}
}

func TestShowEndpoint(t *testing.T) {
	s := testServer(t)
	code, data, _ := v1Get(t, s, "/v1/show?name=Matilda")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	web := data["web_text"].(map[string]any)
	fused := data["fused"].(map[string]any)
	if web["SHOW_NAME"] != "Matilda" {
		t.Errorf("web view = %v", web)
	}
	if _, ok := web["THEATER"]; ok {
		t.Error("web view should not carry THEATER")
	}
	if fused["THEATER"] == "" || fused["CHEAPEST_PRICE"] != "$27" {
		t.Errorf("fused view = %v", fused)
	}
}

func TestFindEndpoint(t *testing.T) {
	s := testServer(t)
	code, data, _ := v1Get(t, s, "/v1/find?q="+strings.ReplaceAll("type = Movie AND name ~ walking", " ", "%20")+"&limit=2")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	total := int(data["total"].(float64))
	entities := data["items"].([]any)
	if total < 2 || len(entities) != 2 {
		t.Errorf("total = %d shown = %d", total, len(entities))
	}
	if code, _, errBody := v1Get(t, s, "/v1/find"); code != http.StatusBadRequest || errBody["code"] != "invalid_argument" {
		t.Errorf("missing q: %d %v", code, errBody)
	}
}

func TestCheapestEndpoint(t *testing.T) {
	s := testServer(t)
	code, data, _ := v1Get(t, s, "/v1/cheapest?limit=2")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	rows := data["items"].([]any)
	if len(rows) != 2 {
		t.Fatalf("cheapest rows = %d", len(rows))
	}
	if rows[0].(map[string]any)["Price"].(float64) > rows[1].(map[string]any)["Price"].(float64) {
		t.Errorf("not sorted ascending: %v", rows)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s := testServer(t)
	req := httptest.NewRequest(http.MethodPost, "/v1/stats", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d", rec.Code)
	}
}

// TestUnversionedRoutesGone: the pre-/v1 paths had one release of grace;
// they now answer like any other unknown path.
func TestUnversionedRoutesGone(t *testing.T) {
	s := testServer(t)
	for _, path := range []string{"/stats", "/types", "/top", "/show?name=Matilda", "/find?q=x", "/cheapest", "/live/stats"} {
		if rec, _ := get(t, s, path); rec.Code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, rec.Code)
		}
	}
	for _, path := range []string{"/ingest/text", "/ingest/records", "/flush"} {
		if rec, _ := post(t, s, path, "{}"); rec.Code != http.StatusNotFound {
			t.Errorf("POST %s = %d, want 404", path, rec.Code)
		}
	}
}

// ---- /v1 surface --------------------------------------------------------

// v1Get fetches path and splits the envelope.
func v1Get(t *testing.T, s *Server, path string) (code int, data map[string]any, errBody map[string]any) {
	t.Helper()
	rec, body := get(t, s, path)
	if body == nil {
		t.Fatalf("GET %s: no JSON body (status %d): %s", path, rec.Code, rec.Body)
	}
	data, _ = body["data"].(map[string]any)
	errBody, _ = body["error"].(map[string]any)
	return rec.Code, data, errBody
}

func TestV1EnvelopeShape(t *testing.T) {
	s := testServer(t)
	rec, body := get(t, s, "/v1/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if _, ok := body["data"]; !ok {
		t.Fatalf("success response missing data envelope: %v", body)
	}
	if _, ok := body["error"]; ok {
		t.Errorf("success response carries error member: %v", body)
	}
	data := body["data"].(map[string]any)
	inst := data["instance"].(map[string]any)
	if inst["Count"].(float64) != 300 {
		t.Errorf("instance count = %v", inst["Count"])
	}

	// Error responses carry only the error member, with code and message.
	rec, body = get(t, s, "/v1/show")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("error status = %d", rec.Code)
	}
	if _, ok := body["data"]; ok {
		t.Errorf("error response carries data member: %v", body)
	}
	errBody := body["error"].(map[string]any)
	if errBody["code"] != "invalid_argument" || errBody["message"] == "" {
		t.Errorf("error body = %v", errBody)
	}
}

// TestWriteJSONEncodeFailure: a value that cannot be encoded is answered
// with a 500 and an internal error envelope, not the status meant for it
// over an empty body.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	b := dataBody()
	b.float(math.Inf(1))
	b.sendData(rec, http.StatusOK)
	var body struct {
		Error *struct{ Code, Message string }
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != http.StatusInternalServerError ||
		body.Error == nil || body.Error.Code != string(dterr.CodeInternal) ||
		body.Error.Message != "encoding response: json: unsupported value: +Inf" {
		t.Fatalf("unencodable value answered %d %q (%v)", rec.Code, rec.Body.Bytes(), err)
	}
}

func TestV1TopPagination(t *testing.T) {
	s := testServer(t)
	code, data, _ := v1Get(t, s, "/v1/top?limit=3")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	items := data["items"].([]any)
	total := int(data["total"].(float64))
	if len(items) != 3 || total < 3 {
		t.Fatalf("items = %d, total = %d", len(items), total)
	}
	if int(data["limit"].(float64)) != 3 || int(data["offset"].(float64)) != 0 {
		t.Errorf("echoed window = %v/%v", data["limit"], data["offset"])
	}

	// Second page, no overlap with the first.
	_, data2, _ := v1Get(t, s, "/v1/top?limit=3&offset=3")
	items2 := data2["items"].([]any)
	if int(data2["total"].(float64)) != total {
		t.Errorf("total changed across pages: %v", data2["total"])
	}
	if len(items2) > 0 {
		first := items[0].(map[string]any)["Name"]
		second := items2[0].(map[string]any)["Name"]
		if first == second {
			t.Errorf("pages overlap: %v", first)
		}
	}
}

func TestV1PaginationEdges(t *testing.T) {
	s := testServer(t)
	// limit=0 is an explicit empty page; total still reported.
	code, data, _ := v1Get(t, s, "/v1/types?limit=0")
	if code != http.StatusOK {
		t.Fatalf("limit=0 status = %d", code)
	}
	if items := data["items"].([]any); len(items) != 0 {
		t.Errorf("limit=0 items = %d", len(items))
	}
	if total := int(data["total"].(float64)); total < 10 {
		t.Errorf("limit=0 total = %d", total)
	}

	// Offset past the end: empty page, true total, echoed (clamped) offset.
	code, data, _ = v1Get(t, s, "/v1/types?limit=5&offset=100000")
	if code != http.StatusOK {
		t.Fatalf("offset-past-end status = %d", code)
	}
	if items := data["items"].([]any); len(items) != 0 {
		t.Errorf("offset-past-end items = %d", len(items))
	}
	if total := int(data["total"].(float64)); total < 10 {
		t.Errorf("offset-past-end total = %d", total)
	}
}

func TestV1StrictIntParams(t *testing.T) {
	s := testServer(t)
	// Malformed numeric parameters are rejected as invalid_argument, never
	// silently replaced by a default.
	for _, path := range []string{
		"/v1/top?limit=banana",
		"/v1/top?offset=banana",
		"/v1/types?limit=-3",
		"/v1/cheapest?offset=1.5",
		"/v1/find?q=type%20%3D%20Movie&limit=banana",
		"/v1/top?limit=99999999",
	} {
		code, _, errBody := v1Get(t, s, path)
		if code != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", path, code)
			continue
		}
		if errBody["code"] != "invalid_argument" {
			t.Errorf("GET %s error code = %v", path, errBody["code"])
		}
	}
}

func TestV1ShowFoundAndNotFound(t *testing.T) {
	s := testServer(t)
	code, data, _ := v1Get(t, s, "/v1/show?name=Matilda")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	fused := data["fused"].(map[string]any)
	if fused["CHEAPEST_PRICE"] != "$27" {
		t.Errorf("fused = %v", fused)
	}

	code, _, errBody := v1Get(t, s, "/v1/show?name=Zz+Totally+Unknown+Zz")
	if code != http.StatusNotFound {
		t.Fatalf("unknown show status = %d", code)
	}
	if errBody["code"] != "not_found" {
		t.Errorf("unknown show code = %v", errBody["code"])
	}
}

func TestV1FindPaginatesWithTotal(t *testing.T) {
	s := testServer(t)
	code, data, _ := v1Get(t, s, "/v1/find?q=type%20%3D%20Movie&limit=2")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if items := data["items"].([]any); len(items) != 2 {
		t.Errorf("items = %d", len(items))
	}
	if total := int(data["total"].(float64)); total <= 2 {
		t.Errorf("total = %d", total)
	}

	code, _, errBody := v1Get(t, s, "/v1/find?q=%3D%3D%3D")
	if code != http.StatusBadRequest || errBody["code"] != "invalid_argument" {
		t.Errorf("malformed filter: %d %v", code, errBody)
	}

	// The handler renders only the window the store returned; the body must
	// be byte for byte what rendering every match and paginating gave.
	all, err := s.q.QueryEntities(context.Background(), "type = Movie", store.Query{Limit: store.NoLimit})
	if err != nil {
		t.Fatal(err)
	}
	rendered := make([]map[string]string, len(all.Docs))
	for i, d := range all.Docs {
		rendered[i] = refDocMap(d)
	}
	n := len(rendered)
	for _, c := range [][2]int{{2, 0}, {3, 5}, {0, 0}, {0, 4}, {10, n - 2}, {5, n}, {5, n + 7}, {1000, 0}} {
		limit, offset := c[0], c[1]
		want, err := refBody(map[string]any{"data": refPage(rendered, limit, offset)})
		if err != nil {
			t.Fatal(err)
		}
		got := httptest.NewRecorder()
		s.ServeHTTP(got, httptest.NewRequest(http.MethodGet,
			fmt.Sprintf("/v1/find?q=type%%20%%3D%%20Movie&limit=%d&offset=%d", limit, offset), nil))
		if got.Body.String() != want {
			t.Errorf("limit %d offset %d: body\n%s\nwant\n%s", limit, offset, got.Body, want)
		}
	}
}

func TestV1WriteEndpointsUnavailableInBatchMode(t *testing.T) {
	s := testServer(t)
	for _, path := range []string{"/v1/ingest/text", "/v1/ingest/records", "/v1/flush"} {
		rec, body := post(t, s, path, "{}")
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("POST %s = %d, want 503", path, rec.Code)
			continue
		}
		errBody := body["error"].(map[string]any)
		if errBody["code"] != "unavailable" {
			t.Errorf("POST %s code = %v", path, errBody["code"])
		}
	}
	code, _, errBody := v1Get(t, s, "/v1/live/stats")
	if code != http.StatusServiceUnavailable || errBody["code"] != "unavailable" {
		t.Errorf("GET /v1/live/stats = %d %v", code, errBody)
	}
}

func TestV1RequestContextCancellation(t *testing.T) {
	s := testServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is already gone when the handler runs
	req := httptest.NewRequest(http.MethodGet, "/v1/top", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 499 {
		t.Fatalf("cancelled request status = %d, want 499", rec.Code)
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	errBody := body["error"].(map[string]any)
	if errBody["code"] != "canceled" {
		t.Errorf("cancelled request code = %v", errBody["code"])
	}
}

// failingQuerier exercises the typed-error→status mapping for classes the
// real pipeline rarely produces on demand.
type failingQuerier struct {
	Querier
	err error
}

func (f failingQuerier) TopDiscussed(context.Context, int) ([]fuse.Discussed, error) {
	return nil, f.err
}

func TestV1TypedErrorStatusMapping(t *testing.T) {
	cases := []struct {
		err        error
		wantStatus int
		wantCode   string
	}{
		{dterr.ErrInvalidArgument, http.StatusBadRequest, "invalid_argument"},
		{dterr.ErrNotFound, http.StatusNotFound, "not_found"},
		{dterr.ErrBusy, http.StatusTooManyRequests, "busy"},
		{dterr.ErrClosed, http.StatusServiceUnavailable, "closed"},
		{dterr.ErrUnavailable, http.StatusServiceUnavailable, "unavailable"},
		{dterr.ErrDeadlineExceeded, http.StatusGatewayTimeout, "deadline_exceeded"},
		{errors.New("plain failure"), http.StatusInternalServerError, "internal"},
	}
	for _, c := range cases {
		s := New(failingQuerier{err: c.err})
		rec, body := get(t, s, "/v1/top")
		if rec.Code != c.wantStatus {
			t.Errorf("%v: status = %d, want %d", c.err, rec.Code, c.wantStatus)
			continue
		}
		errBody := body["error"].(map[string]any)
		if errBody["code"] != c.wantCode {
			t.Errorf("%v: code = %v, want %s", c.err, errBody["code"], c.wantCode)
		}
	}
}

// ---- write endpoints (live mode) ----------------------------------------

func post(t *testing.T, s *Server, path, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var out map[string]any
	if strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") {
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			out = nil
		}
	}
	return rec, out
}

// liveServer builds a fresh live-mode server; not shared, since write tests
// mutate pipeline state.
func liveServer(t *testing.T) (*Server, *live.Ingester) {
	t.Helper()
	tm := core.New(core.Config{Fragments: 150, FTSources: 3, Shards: 2, Seed: 11})
	if err := tm.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ing, err := live.Open(context.Background(), tm, live.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ing.Close() })
	return NewLive(tm, ing), ing
}

func TestIngestTextEndpoint(t *testing.T) {
	s, _ := liveServer(t)
	rec, body := post(t, s, "/v1/ingest/text",
		`{"fragments":[{"url":"http://x/1","text":"Matilda grossed 960,998 this week."},
		               {"url":"http://x/2","text":"Once previews began on Tuesday."}]}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	if accepted := body["data"].(map[string]any)["accepted"]; accepted.(float64) != 2 {
		t.Errorf("accepted = %v", accepted)
	}
	if rec, _ := post(t, s, "/v1/flush", ""); rec.Code != http.StatusOK {
		t.Fatalf("flush status = %d", rec.Code)
	}
	code, stats, _ := v1Get(t, s, "/v1/live/stats")
	if code != http.StatusOK {
		t.Fatalf("live stats status = %d", code)
	}
	if stats["fragments_ingested"].(float64) != 2 {
		t.Errorf("fragments_ingested = %v", stats["fragments_ingested"])
	}
	if stats["pending_events"].(float64) != 0 {
		t.Errorf("pending_events = %v", stats["pending_events"])
	}
	if stats["wal_size_bytes"].(float64) <= 0 || stats["wal_events"].(float64) != 1 || stats["next_seq"].(float64) != 2 {
		t.Errorf("wal stats = %v / %v / %v", stats["wal_size_bytes"], stats["wal_events"], stats["next_seq"])
	}
	// The full key set of /v1/live/stats, so that no rewrite of the
	// ingester drops one silently. last_error is omitted while no apply
	// has failed.
	want := []string{
		"queue_depth", "queue_capacity", "pending_events", "queued_bytes",
		"text_events", "record_events", "fragments_ingested", "records_ingested",
		"instances_inserted", "entities_inserted",
		"batches", "avg_batch_ms", "last_batch_ms", "fused_refreshes", "fused_dirty", "apply_errors",
		"wal_size_bytes", "wal_events", "next_seq",
		"replay_applied", "replay_skipped", "replay_errors", "replay_truncated",
		"closed",
	}
	got := slices.Sorted(maps.Keys(stats))
	if slices.Sort(want); !slices.Equal(got, want) {
		t.Errorf("live stats keys = %v, want %v", got, want)
	}
	if stats["queue_capacity"].(float64) != 1024 || stats["queue_depth"].(float64) != 0 {
		t.Errorf("queue capacity / depth = %v / %v, want 1024 / 0", stats["queue_capacity"], stats["queue_depth"])
	}
}

func TestV1IngestAndQueryRoundTrip(t *testing.T) {
	s, _ := liveServer(t)
	rec, body := post(t, s, "/v1/ingest/records",
		`{"source":"api_feed","records":[{"SHOW_NAME":"Copper Skyline","THEATER":"Majestic","CHEAPEST_PRICE":58}]}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	data := body["data"].(map[string]any)
	if data["accepted"].(float64) != 1 {
		t.Errorf("accepted = %v", data["accepted"])
	}
	if rec, _ := post(t, s, "/v1/flush", ""); rec.Code != http.StatusOK {
		t.Fatalf("v1 flush status = %d", rec.Code)
	}
	code, data, _ := v1Get(t, s, "/v1/show?name=Copper+Skyline")
	if code != http.StatusOK {
		t.Fatalf("v1 show status = %d", code)
	}
	fused := data["fused"].(map[string]any)
	if fused["THEATER"] != "Majestic" {
		t.Errorf("fused = %v", fused)
	}
	code, data, _ = v1Get(t, s, "/v1/live/stats")
	if code != http.StatusOK {
		t.Fatalf("v1 live stats = %d", code)
	}
	if data["records_ingested"].(float64) != 1 {
		t.Errorf("records_ingested = %v", data["records_ingested"])
	}
}

func TestV1ShowFoundWhenFusedRecordAddsNoFields(t *testing.T) {
	// Regression: the 404 check must be an existence test, not a
	// field-count diff — a fused record carrying only SHOW_NAME (no
	// enrichment beyond the web-text fallback) is still a known show.
	s, _ := liveServer(t)
	rec, _ := post(t, s, "/v1/ingest/records",
		`{"source":"sparse_feed","records":[{"SHOW_NAME":"Bare Minimum"}]}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("ingest = %d", rec.Code)
	}
	if rec, _ := post(t, s, "/v1/flush", ""); rec.Code != http.StatusOK {
		t.Fatalf("flush = %d", rec.Code)
	}
	code, data, errBody := v1Get(t, s, "/v1/show?name=Bare+Minimum")
	if code != http.StatusOK {
		t.Fatalf("sparse fused show = %d (%v), want 200", code, errBody)
	}
	if data["fused"].(map[string]any)["SHOW_NAME"] != "Bare Minimum" {
		t.Errorf("fused view = %v", data["fused"])
	}
}

func TestV1IngestBadRequests(t *testing.T) {
	s, _ := liveServer(t)
	cases := []struct{ path, body string }{
		{"/v1/ingest/text", `not json`},
		{"/v1/ingest/text", `{"fragments":[]}`},
		{"/v1/ingest/text", `{"fragments":[{"url":"http://x","text":""}]}`},
		{"/v1/ingest/records", `{"records":[{"A":1}]}`},
		{"/v1/ingest/records", `{"source":"s","records":[]}`},
		{"/v1/ingest/records", `{"source":"s","records":[{"A":{"nested":true}}]}`},
	}
	for _, c := range cases {
		rec, body := post(t, s, c.path, c.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("POST %s %q = %d, want 400", c.path, c.body, rec.Code)
			continue
		}
		errBody := body["error"].(map[string]any)
		if errBody["code"] != "invalid_argument" {
			t.Errorf("POST %s code = %v", c.path, errBody["code"])
		}
	}
	// A malformed checkpoint parameter is invalid_argument, not false.
	rec, body := post(t, s, "/v1/flush?checkpoint=banana", "")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("v1 flush bad checkpoint = %d", rec.Code)
	} else if body["error"].(map[string]any)["code"] != "invalid_argument" {
		t.Errorf("v1 flush bad checkpoint body = %v", body)
	}
}

// A record finds its fields by a linear scan, so ingest bounds a row's
// fields: a row of 100 000 keys is refused at once instead of costing
// quadratic time, and an ordinary wide row still goes through.
func TestV1IngestRecordFieldCap(t *testing.T) {
	s, _ := liveServer(t)
	row := func(n int) string {
		var b strings.Builder
		b.WriteString(`{"source":"wide_feed","records":[{"SHOW_NAME":"Wide Load"`)
		for i := 1; i < n; i++ {
			fmt.Fprintf(&b, `,"attr_%d":%d`, i, i)
		}
		b.WriteString(`}]}`)
		return b.String()
	}
	body := row(100_000)
	start := time.Now()
	rec, out := post(t, s, "/v1/ingest/records", body)
	if took := time.Since(start); took > raceSlowdown*time.Second {
		t.Errorf("a row of 100000 fields took %v to refuse", took)
	}
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("row of 100000 fields = %d, want 400", rec.Code)
	}
	if code := out["error"].(map[string]any)["code"]; code != "invalid_argument" {
		t.Errorf("row of 100000 fields code = %v", code)
	}
	if rec, _ := post(t, s, "/v1/ingest/records", row(20)); rec.Code != http.StatusAccepted {
		t.Errorf("row of 20 fields = %d, want 202 (%s)", rec.Code, rec.Body)
	}
}

func TestFlushCheckpointEndpoint(t *testing.T) {
	s, ing := liveServer(t)
	if rec, _ := post(t, s, "/v1/ingest/text", `{"fragments":[{"url":"http://x/1","text":"Annie opened."}]}`); rec.Code != http.StatusAccepted {
		t.Fatalf("ingest = %d", rec.Code)
	}
	rec, body := post(t, s, "/v1/flush?checkpoint=1", "")
	if rec.Code != http.StatusOK || body["data"].(map[string]any)["status"] != "checkpoint complete" {
		t.Fatalf("checkpoint flush = %d %v", rec.Code, body)
	}
	if size := ing.Stats().WALSizeBytes; size > 16 {
		t.Errorf("wal not truncated after checkpoint: %d bytes", size)
	}
}

// Interface conformance beyond the concrete pipeline: the server must be
// constructible from any Querier implementation (this is what keeps serve
// decoupled from *core.Tamer).
var _ Querier = failingQuerier{}
