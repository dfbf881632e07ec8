package obs

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterExposition(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("dt_test_total", "A test counter.", "route", "code")
	for range 3 {
		c.With("/v1/show", "200").Inc()
	}
	c.With("/v1/show", "404").Inc()
	c.With("/v1/top", "200").Inc()

	out := reg.Render()
	want := strings.Join([]string{
		"# HELP dt_test_total A test counter.",
		"# TYPE dt_test_total counter",
		`dt_test_total{route="/v1/show",code="200"} 3`,
		`dt_test_total{route="/v1/show",code="404"} 1`,
		`dt_test_total{route="/v1/top",code="200"} 1`,
		"",
	}, "\n")
	if out != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", out, want)
	}
}

func TestGauge(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("dt_depth", "Queue depth.").With()
	g.Inc()
	g.Inc()
	g.Dec()
	if g.v.Load() != 1 {
		t.Fatalf("gauge = %d, want 1", g.v.Load())
	}
	g.Set(42)
	if !strings.Contains(reg.Render(), "dt_depth 42\n") {
		t.Fatalf("unlabeled gauge missing from exposition:\n%s", reg.Render())
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("dt_lat_seconds", "Latency.", []float64{0.001, 0.01, 0.1}, "route").With("/v1/show")
	for _, v := range []float64{0.0005, 0.002, 0.05, 5} {
		h.Observe(v)
	}
	if h.count.Load() != 4 {
		t.Fatalf("count = %d, want 4", h.count.Load())
	}
	if got, want := h.Sum(), 0.0005+0.002+0.05+5; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	out := reg.Render()
	for _, line := range []string{
		`dt_lat_seconds_bucket{route="/v1/show",le="0.001"} 1`,
		`dt_lat_seconds_bucket{route="/v1/show",le="0.01"} 2`,
		`dt_lat_seconds_bucket{route="/v1/show",le="0.1"} 3`,
		`dt_lat_seconds_bucket{route="/v1/show",le="+Inf"} 4`,
		`dt_lat_seconds_count{route="/v1/show"} 4`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Fatalf("exposition missing %q:\n%s", line, out)
		}
	}
}

// A value exactly on a bucket boundary counts into that bucket (le is an
// inclusive upper bound).
func TestHistogramBoundaryInclusive(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("dt_b_seconds", "Boundary.", []float64{1, 2}).With()
	h.Observe(1)
	out := reg.Render()
	if !strings.Contains(out, `dt_b_seconds_bucket{le="1"} 1`) {
		t.Fatalf("boundary observation not in le=1 bucket:\n%s", out)
	}
}

func TestRedeclareSharesFamily(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("dt_shared_total", "Shared.", "k")
	b := reg.Counter("dt_shared_total", "Shared.", "k")
	a.With("x").Inc()
	b.With("x").Inc()
	if got := a.With("x").v.Load(); got != 2 {
		t.Fatalf("shared counter = %d, want 2", got)
	}
}

func TestRedeclareKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dt_clash", "A.")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	reg.Gauge("dt_clash", "B.")
}

func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dt_esc_total", "Esc.", "q").With(`a"b\c` + "\nd").Inc()
	out := reg.Render()
	if !strings.Contains(out, `q="a\"b\\c\nd"`) {
		t.Fatalf("label not escaped:\n%s", out)
	}
}

func TestConcurrentObserve(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("dt_conc_seconds", "Concurrent.", nil, "r")
	c := reg.Counter("dt_conc_total", "Concurrent.", "r")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.With("x").Observe(0.001)
				c.With("x").Inc()
			}
		}()
	}
	wg.Wait()
	if h.With("x").count.Load() != 8000 || c.With("x").v.Load() != 8000 {
		t.Fatalf("lost updates: hist=%d counter=%d", h.With("x").count.Load(), c.With("x").v.Load())
	}
}

func TestMiddlewareRecordsRouteStatusLatency(t *testing.T) {
	reg := NewRegistry()
	m := NewHTTPMetrics(reg)
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/missing" {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		_, _ = w.Write([]byte("ok")) // implicit 200
	})
	h := m.Middleware(func(r *http.Request) string { return r.URL.Path }, inner)

	for _, path := range []string{"/a", "/a", "/missing"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	}
	out := reg.Render()
	for _, line := range []string{
		`dt_http_requests_total{route="/a",method="GET",code="200"} 2`,
		`dt_http_requests_total{route="/missing",method="GET",code="404"} 1`,
		`dt_http_in_flight{route="/a"} 0`,
		`dt_http_request_seconds_count{route="/a"} 2`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Fatalf("exposition missing %q:\n%s", line, out)
		}
	}
}

func TestMiddlewareBoundsMethodLabel(t *testing.T) {
	reg := NewRegistry()
	m := NewHTTPMetrics(reg)
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("ok"))
	})
	h := m.Middleware(func(r *http.Request) string { return "fixed" }, inner)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("EVILMETHOD1", "/a", nil))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/a", nil))

	out := reg.Render()
	if strings.Contains(out, "EVILMETHOD1") {
		t.Fatalf("client-controlled method leaked into a label:\n%s", out)
	}
	for _, line := range []string{
		`dt_http_requests_total{route="fixed",method="OTHER",code="200"} 1`,
		`dt_http_requests_total{route="fixed",method="DELETE",code="200"} 1`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Fatalf("exposition missing %q:\n%s", line, out)
		}
	}
}

func TestMetricsHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dt_h_total", "H.").With().Inc()
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "dt_h_total 1") {
		t.Fatalf("handler body missing sample:\n%s", rec.Body.String())
	}
}
