package serve

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fuse"
	"repro/internal/live"
	"repro/internal/record"
	"repro/internal/store"
)

// stubQuerier answers every read from fixed values, so a golden body can
// hold what no generated pipeline produces: markup, control bytes, invalid
// UTF-8, floats at the edges of their formats.
type stubQuerier struct {
	stats      store.Stats
	types      []core.TypeCount
	top        []fuse.Discussed
	cheapest   []fuse.PricedShow
	docs       []*store.Doc
	web, fused *record.Record
}

func (q *stubQuerier) InstanceStatsCtx(context.Context) (store.Stats, error) { return q.stats, nil }
func (q *stubQuerier) EntityStatsCtx(context.Context) (store.Stats, error) {
	s := q.stats
	s.NS = "dt.entity"
	s.Count++
	return s, nil
}
func (q *stubQuerier) EntityTypeCounts(context.Context) ([]core.TypeCount, error) {
	return q.types, nil
}
func (q *stubQuerier) TopDiscussed(context.Context, int) ([]fuse.Discussed, error) {
	return q.top, nil
}
func (q *stubQuerier) QueryShow(context.Context, string) (web, fused *record.Record, err error) {
	return q.web, q.fused, nil
}
func (q *stubQuerier) ShowInFused(context.Context, string) (bool, error) { return true, nil }
func (q *stubQuerier) CheapestShows(context.Context, int) ([]fuse.PricedShow, error) {
	return q.cheapest, nil
}
func (q *stubQuerier) QueryEntities(_ context.Context, _ string, sq store.Query) (store.Result, error) {
	end := min(sq.Offset+sq.Limit, len(q.docs))
	start := min(sq.Offset, end)
	return store.Result{Docs: q.docs[start:end], Total: int64(len(q.docs))}, nil
}

// stubIngestor accepts every write and reports fixed counters.
type stubIngestor struct{ stats live.Stats }

func (*stubIngestor) IngestText(context.Context, []live.Fragment) error { return nil }
func (*stubIngestor) IngestRecords(context.Context, string, []*record.Record) error {
	return nil
}
func (*stubIngestor) Flush(context.Context) error      { return nil }
func (*stubIngestor) Checkpoint(context.Context) error { return nil }
func (i *stubIngestor) Stats() live.Stats              { return i.stats }

// awkward is a string holding every class of byte the encoder escapes.
const awkward = "Café <b>Rock & Roll</b> \"live\"\nline\u2028sep\u2029par\tx\x01\x1f\x7f bad\xffbyte \\ end"

func stubShow() (web, fused *record.Record) {
	web = record.New()
	web.Set("SHOW_NAME", record.String("Ωmega <&>"))
	web.Set("TEXT_FEED", record.String(awkward))
	fused = web.Clone()
	fused.Set("SEATS", record.Int(-1251))
	fused.Set("STARS", record.Float(2.5e-7))
	fused.Set("FIRST", record.Time(time.Date(2013, 3, 4, 0, 0, 0, 0, time.UTC)))
	fused.Set("OPENED", record.Time(time.Date(2013, 3, 4, 19, 30, 0, 0, time.FixedZone("", -5*3600))))
	fused.Set("ACCESSIBLE", record.Bool(true))
	fused.Set("NOTES", record.Null)
	fused.Set("zeta", record.String("lower case sorts after upper"))
	return web, fused
}

func stubDocs() []*store.Doc {
	docs := []*store.Doc{
		store.NewDoc(
			store.F("type", store.Str("Movie")),
			store.F("name", store.Str(awkward)),
			store.F("entity", store.Nested(store.NewDoc(store.F("x", store.Num(1))))),
			store.F("tags", store.List(store.Str("a"))),
			store.F("uid", store.Num(7))),
		store.NewDoc(),
		store.NewDoc(store.F("price", store.Scalar(record.Float(1e21))), store.F("on", store.Scalar(record.Bool(false)))),
	}
	return docs
}

func stubQuerierFull() *stubQuerier {
	web, fused := stubShow()
	return &stubQuerier{
		stats: store.Stats{NS: "dt.<instance>", Count: 17731744, NumExtents: 3, NIndexes: 2,
			LastExtentSize: 1 << 20, TotalIndexSize: 4096, DataSize: 1 << 33, AvgObjSize: 484},
		types: []core.TypeCount{{Type: "Movie", Count: 12}, {Type: "", Count: 0}, {Type: "Per\"son", Count: -3}},
		top:   []fuse.Discussed{{Name: "Matilda", Mentions: 7}, {Name: awkward, Mentions: 1}},
		cheapest: []fuse.PricedShow{
			{Show: "A", Price: 27, Raw: "$27"},
			{Show: "B", Price: 0.5, Raw: "50¢"},
			{Show: "C", Price: 1e-7, Raw: ""},
			{Show: "D", Price: -1e21, Raw: "<free>"},
			{Show: "E", Price: 123456789.125, Raw: "x"},
			{Show: "F", Price: 1e-6, Raw: "y"},
			{Show: "G", Price: 999999999999999999999, Raw: "z"},
			{Show: "H", Price: math.Copysign(0, -1), Raw: "-0"},
			{Show: "I", Price: 5e-324, Raw: "denormal"},
			{Show: "J", Price: math.MaxFloat64, Raw: "max"},
		},
		docs: stubDocs(),
		web:  web, fused: fused,
	}
}

// stubRequest is one request of the stub golden: the server it goes to,
// the method, the path and a body.
type stubRequest struct {
	server       string
	method, path string
	body         string
}

// TestV1StubBodiesGolden pins, byte for byte, the bodies the pipeline
// golden cannot reach: a degraded read, the write routes and /healthz,
// the batch-mode 503, floats at the edges of their formats and an
// unencodable one, and strings holding every byte class the encoder
// escapes. testdata/v1_stub_bodies.golden was written by encoding/json.
func TestV1StubBodiesGolden(t *testing.T) {
	nan := stubQuerierFull()
	nan.cheapest = []fuse.PricedShow{{Show: "A", Price: 1}, {Show: "B", Price: math.NaN()}}
	inf := stubQuerierFull()
	inf.cheapest = []fuse.PricedShow{{Show: "A", Price: math.Inf(-1)}}
	ing := &stubIngestor{stats: live.Stats{
		QueueDepth: 3, QueueCapacity: 1024, Pending: 4, QueuedBytes: 1 << 40,
		TextEvents: 5, RecordEvents: 6, Fragments: 7, Records: 8, Instances: 9, Entities: 10,
		Batches: 11, AvgBatchMs: 1.25, LastBatchMs: 3e-7, FusedRefreshes: 12, FusedDirty: true, ApplyErrors: 13,
		WALSizeBytes: 14, WALEvents: 15, NextSeq: math.MaxUint64, ReplayApplied: 16, ReplaySkipped: 17,
		ReplayErrors: 18, ReplayTruncated: true, Closed: false,
	}}
	failing := &stubIngestor{stats: live.Stats{QueueCapacity: 1024, Closed: true, LastError: "wal: disk <full> & \"stuck\""}}
	servers := map[string]*Server{
		"stub":     NewLive(stubQuerierFull(), ing),
		"failing":  NewLive(stubQuerierFull(), failing),
		"batch":    New(stubQuerierFull()),
		"degraded": New(&partialQuerier{missing: 2}),
		"nan":      New(nan),
		"inf":      New(inf),
	}
	reqs := []stubRequest{
		{"stub", http.MethodGet, "/healthz", ""},
		{"stub", http.MethodGet, "/v1/stats", ""},
		{"stub", http.MethodGet, "/v1/types", ""},
		{"stub", http.MethodGet, "/v1/types?limit=0", ""},
		{"stub", http.MethodGet, "/v1/top?offset=1", ""},
		{"stub", http.MethodGet, "/v1/top?offset=9", ""},
		{"stub", http.MethodGet, "/v1/cheapest", ""},
		{"stub", http.MethodGet, "/v1/find?q=x&limit=5", ""},
		{"stub", http.MethodGet, "/v1/find?q=x&limit=5&offset=7", ""},
		{"stub", http.MethodGet, "/v1/show?name=x", ""},
		{"stub", http.MethodGet, "/v1/live/stats", ""},
		{"failing", http.MethodGet, "/v1/live/stats", ""},
		{"stub", http.MethodPost, "/v1/ingest/text", `{"fragments":[{"url":"http://x/1","text":"Annie opened."},{"text":"Matilda closed."}]}`},
		{"stub", http.MethodPost, "/v1/ingest/records", `{"source":"ft9","records":[{"SHOW_NAME":"Annie"}]}`},
		{"stub", http.MethodPost, "/v1/ingest/text", `{"fragments":[`},
		{"stub", http.MethodPost, "/v1/flush", ""},
		{"stub", http.MethodPost, "/v1/flush?checkpoint=1", ""},
		{"batch", http.MethodPost, "/v1/flush", ""},
		{"batch", http.MethodGet, "/v1/live/stats", ""},
		{"degraded", http.MethodGet, "/v1/top", ""},
		{"degraded", http.MethodGet, "/v1/show?name=Nowhere", ""},
		{"nan", http.MethodGet, "/v1/cheapest", ""},
		{"inf", http.MethodGet, "/v1/cheapest", ""},
	}
	var got bytes.Buffer
	for _, r := range reqs {
		rec := httptest.NewRecorder()
		servers[r.server].ServeHTTP(rec, httptest.NewRequest(r.method, r.path, strings.NewReader(r.body)))
		fmt.Fprintf(&got, "%s %s %s\n%d %s %s\n%s\n", r.server, r.method, r.path,
			rec.Code, rec.Header().Get("Content-Type"), rec.Header().Get(degradedHeader), rec.Body.Bytes())
	}
	golden := filepath.Join("testdata", "v1_stub_bodies.golden")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("/v1 stub bodies differ from %s (rerun with -update if intended)\ngot:\n%s", golden, got.Bytes())
	}
}
