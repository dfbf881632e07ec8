package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestQuantileAndMedian(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 5.5}, {0.75, 7.75}, {0.95, 9.55}, {1, 10}} {
		if got := quantile(s, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(1..10, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of unsorted input = %g, want 5", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %g, want 0", got)
	}
}

// A percentile is reported only with at least ten samples beyond it.
func TestTailSelection(t *testing.T) {
	for _, c := range []struct {
		n      int
		q      float64
		beyond int
	}{{50, 0.75, 12}, {200, 0.95, 10}, {199, 0.95, 9}, {1000, 0.99, 10}, {13, 0.75, 3}} {
		if got := samplesBeyond(c.n, c.q); got != c.beyond {
			t.Errorf("samplesBeyond(%d, %g) = %d, want %d", c.n, c.q, got, c.beyond)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{39, 0}, {40, 0.75}, {99, 0.75}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {999, 0.95}, {1000, 0.99}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// The self-check's quartiles are the ones Python's
// statistics.quantiles(values, n=4) gives.
func TestSummarizeMatchesPythonQuartiles(t *testing.T) {
	s := summarize([]float64{12, 7, 3, 9, 15, 1, 8, 20, 4, 10})
	if s.q1 != 3.75 || s.median != 8.5 || s.q3 != 12.75 {
		t.Errorf("summarize = %+v, want q1 3.75, median 8.5, q3 12.75", s)
	}
	if got := summarize([]float64{2, 1, 3}); got.q1 != 1 || got.q3 != 3 {
		t.Errorf("summarize of three = %+v, want q1 1, q3 3", got)
	}
}

func TestTimingsOfKnownLatencies(t *testing.T) {
	w := workload{tailQ: 0.75}
	lat := []time.Duration{40 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond, 100 * time.Millisecond}
	got := w.timings(lat, 400*time.Millisecond)
	want := map[string]float64{"ops_per_s": 25, "op_p50_ms": 30, "op_tail_ms": 40, "cpu_ms_per_op": 80}
	for _, d := range opTimings {
		if math.Abs(got[d.name]-want[d.name]) > 1e-9 {
			t.Errorf("%s = %g, want %g", d.name, got[d.name], want[d.name])
		}
	}
	if len(got) != len(opTimings) {
		t.Errorf("timings holds %d values, want the %d of opTimings", len(got), len(opTimings))
	}
}

func TestSelfTimesSubtractTheRungBelow(t *testing.T) {
	got := selfTimes([]float64{10, 7, 6.5, 4})
	if want := []float64{3, 0.5, 2.5, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	// A rung that measured faster than the one below it has no self time.
	if got := selfTimes([]float64{5, 6}); got[0] != 0 || got[1] != 6 {
		t.Errorf("selfTimes with an inverted rung = %v, want [0 6]", got)
	}
}

func TestTracerKeepsSpansByNameAndRung(t *testing.T) {
	tr := newTracer()
	root := tr.begin("op", rungClient, 7, -1)
	child := tr.begin("show", rungClient, 7, root)
	tr.end(child)
	tr.end(root)
	open := tr.begin("show", rungServe, 7, -1) // never ended: not a sample
	if s := tr.spans[child]; s.Parent != root || s.Op != 7 || s.End < s.Start {
		t.Errorf("child span = %+v", s)
	}
	if n := len(tr.durationsMS("show", rungClient)); n != 1 {
		t.Errorf("%d client show durations, want 1", n)
	}
	if n := len(tr.durationsMS("show", rungServe)); n != 0 {
		t.Errorf("open span %d counted as a sample", open)
	}
	dir := t.TempDir()
	if err := tr.write(dir, "w"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dir + "/w.trace.json")
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil || len(spans) != 3 {
		t.Errorf("trace file holds %d spans (%v), want 3", len(spans), err)
	}
}

// The same seed gives the same op sequence, another seed another one.
func TestViewPlanIsSeedDetermined(t *testing.T) {
	names := []string{"Annie", "Chicago", "Matilda", "Once", "Pippin", "Wicked", "Newsies", "Motown", "Cinderella"}
	paths := func(seed int64) []string {
		p := newViewPlan(seed, names)
		var out []string
		for i := 0; i < 12; i++ {
			for _, r := range p.view(i) {
				out = append(out, r.path)
			}
		}
		return out
	}
	a, b, c := paths(3), paths(3), paths(4)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two different op sequences")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("seeds 3 and 4 gave the same op sequence")
	}
	if got := len(newViewPlan(3, names).view(0)); got != 16 {
		t.Errorf("a page view has %d requests, want 16", got)
	}
}

func TestCountingListenerCountsBothDirections(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cln := &countingListener{Listener: ln}
	defer cln.Close()
	done := make(chan error, 1)
	go func() {
		c, err := cln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		buf := make([]byte, 5)
		if _, err := io.ReadFull(c, buf); err != nil {
			done <- err
			return
		}
		_, err = c.Write([]byte("seven.."))
		done <- err
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c, make([]byte, 7)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := cln.bytes.Load(); got != 12 {
		t.Errorf("counted %d bytes, want 5 read + 7 written", got)
	}
}

func TestScrapeSumsOverLabelSets(t *testing.T) {
	m := scrape("# HELP x y\n# TYPE x counter\nx_total{op=\"a\"} 3\nx_total{op=\"b\"} 4\nx_total_more 100\nplain 2.5\n")
	if got := m.sum("x_total"); got != 7 {
		t.Errorf("sum(x_total) = %g, want 7", got)
	}
	if got := m.sum("plain"); got != 2.5 {
		t.Errorf("sum(plain) = %g, want 2.5", got)
	}
}

// BENCHMARK.json and the harness declare the same workloads and metrics.
func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var bf struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name+": "+w.Why)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name+": "+w.why)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads differ:\n json %q\n code %q", names, want)
	}
	for _, c := range []struct {
		kind string
		json []metric
		code []metricDef
	}{{"end_to_end", bf.EndToEnd, endToEnd}, {"per_layer", bf.PerLayer, perLayer}} {
		var code []metric
		for _, d := range c.code {
			code = append(code, metric{d.name, d.unit})
		}
		if !reflect.DeepEqual(c.json, code) {
			t.Errorf("%s metrics differ:\n json %v\n code %v", c.kind, c.json, code)
		}
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
}

func TestNewResultRejectsUndeclaredMetric(t *testing.T) {
	if _, err := newResult(endToEnd, map[string]float64{"op_p51_ms": 1}, 1, 0, true); err == nil {
		t.Error("an undeclared metric name was accepted")
	}
}

// Three ops of every workload, at a corpus small enough for a test, with
// tracing off and on: the run is correct and prints every declared metric
// exactly once with its unit.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name + "/end_to_end"
			if trace {
				name = w.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				cfg := config{workload: w.name, seed: 1, ops: 3, trace: trace, outDir: t.TempDir(), fragments: 150, sources: 3, setups: 1}
				var log bytes.Buffer
				res, defs, err := w.run(context.Background(), cfg, &log)
				if err != nil {
					t.Fatalf("%v\n%s", err, log.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted != 3 {
					t.Errorf("correct %v, attempted %d, failed %d\n%s", res.Correct, res.Attempted, res.Failed, log.String())
				}
				var out bytes.Buffer
				if err := res.print(&out, defs); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				for _, d := range defs {
					n := 0
					for _, line := range lines[:len(lines)-2] {
						if f := strings.Fields(line); len(f) == 3 && f[0] == d.name && f[2] == d.unit {
							n++
						}
					}
					if n != 1 {
						t.Errorf("metric %s printed %d times with unit %s", d.name, n, d.unit)
					}
				}
				var last result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				if len(last.Metrics) != len(defs) {
					t.Errorf("result object holds %d metrics, want %d", len(last.Metrics), len(defs))
				}
				if !trace {
					for name, m := range last.Metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end metric %s = %g, want positive", name, m.Value)
						}
					}
				}
				if entries, _ := os.ReadDir(cfg.outDir); trace != (len(entries) == 1) {
					t.Errorf("out dir holds %d entries after a run with trace=%v", len(entries), trace)
				}
			})
		}
	}
}
