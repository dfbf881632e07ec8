// Package obs is the observability layer of the serving tier: a
// dependency-free metrics registry exposing the Prometheus text format
// (counters, gauges, and fixed-bucket histograms, each optionally split by
// labels), plus HTTP instrumentation middleware in http.go. It exists so
// the serve tier, the cluster transport, and the cmds can record and
// expose operational series — request rates, latency distributions, cache
// effectiveness, admission drops — without pulling the Prometheus client
// library into the build.
//
// The exposition is the subset of the text format every Prometheus-
// compatible scraper understands: one # HELP and # TYPE line per family,
// then one sample line per label combination, histograms rendered as
// cumulative _bucket{le=...} series with _sum and _count. Families render
// in registration order and series within a family in sorted label order,
// so the output is deterministic and diffable in tests.
package obs

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets is the default latency histogram layout, in seconds: wide
// enough to resolve a sub-millisecond cache hit and a multi-second
// overloaded tail in the same series.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// kind is the metric family type, named as the exposition spells it.
type kind string

const (
	kindCounter   kind = "counter"
	kindGauge     kind = "gauge"
	kindHistogram kind = "histogram"
)

// Registry holds metric families and renders them. The zero value is not
// usable; construct with NewRegistry. Safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families []*family // registration order, for stable exposition
	byName   map[string]*family
}

// family is one named metric with its per-label-combination children.
type family struct {
	name    string
	help    string
	kind    kind
	labels  []string
	buckets []float64 // histograms only

	mu       sync.Mutex
	children map[string]metric // key: label values joined with 0xff
}

type metric interface {
	// write appends this child's sample lines for the given rendered
	// label block (may be empty).
	write(b *strings.Builder, name, labelBlock string)
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// defaultRegistry is the process-wide registry the cmds expose; package-
// level helpers in this file and the cluster transport record into it.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// register creates or fetches a family, enforcing a consistent
// redeclaration (same kind and label names) — two subsystems asking for
// the same series share children instead of colliding.
func (r *Registry) register(name, help string, k kind, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != k || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q redeclared as %s%v (was %s%v)", name, k, labels, f.kind, f.labels))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("obs: metric %q redeclared with labels %v (was %v)", name, labels, f.labels))
			}
		}
		return f
	}
	f := &family{name: name, help: help, kind: k, labels: labels, buckets: buckets, children: make(map[string]metric)}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

// child fetches or creates the metric for one label-value combination.
func (f *family) child(values []string, make func() metric) metric {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.children[key]; ok {
		return m
	}
	m := make()
	f.children[key] = m
	return m
}

// ---- counter -----------------------------------------------------------

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

func (c *Counter) write(b *strings.Builder, name, labelBlock string) {
	fmt.Fprintf(b, "%s%s %d\n", name, labelBlock, c.v.Load())
}

// CounterVec is a counter family split by labels.
type CounterVec struct{ f *family }

// Counter registers (or fetches) a counter family. No labels yields a
// single-series family; use With() with no values.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, kindCounter, labels, nil)}
}

// With returns the counter for one label-value combination.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values, func() metric { return &Counter{} }).(*Counter)
}

// ---- gauge -------------------------------------------------------------

// Gauge is a value that can go up and down (queue depths, in-flight
// requests, cache size).
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

func (g *Gauge) write(b *strings.Builder, name, labelBlock string) {
	fmt.Fprintf(b, "%s%s %d\n", name, labelBlock, g.v.Load())
}

// GaugeVec is a gauge family split by labels.
type GaugeVec struct{ f *family }

// Gauge registers (or fetches) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, kindGauge, labels, nil)}
}

// With returns the gauge for one label-value combination.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.child(values, func() metric { return &Gauge{} }).(*Gauge)
}

// ---- histogram ---------------------------------------------------------

// Histogram is a fixed-bucket distribution. Observations are lock-free:
// per-bucket atomic counts plus an atomic bit-cast float sum.
type Histogram struct {
	buckets []float64 // upper bounds, ascending; +Inf implicit
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	count   atomic.Uint64
}

func newHistogram(buckets []float64) *Histogram {
	return &Histogram{buckets: buckets, counts: make([]atomic.Uint64, len(buckets)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.buckets, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) write(b *strings.Builder, name, labelBlock string) {
	// _bucket series carry an extra le label, spliced into the block.
	inner := strings.TrimSuffix(strings.TrimPrefix(labelBlock, "{"), "}")
	var cum uint64
	for i, ub := range h.buckets {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, leBlock(inner, formatFloat(ub)), cum)
	}
	cum += h.counts[len(h.buckets)].Load()
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, leBlock(inner, "+Inf"), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, labelBlock, formatFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, labelBlock, h.count.Load())
}

func leBlock(inner, le string) string {
	if inner == "" {
		return `{le="` + le + `"}`
	}
	return "{" + inner + `,le="` + le + `"}`
}

func formatFloat(f float64) string {
	if math.IsInf(f, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// HistogramVec is a histogram family split by labels.
type HistogramVec struct{ f *family }

// Histogram registers (or fetches) a histogram family with the given
// bucket upper bounds (nil selects DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{f: r.register(name, help, kindHistogram, labels, buckets)}
}

// With returns the histogram for one label-value combination.
func (v *HistogramVec) With(values ...string) *Histogram {
	f := v.f
	return f.child(values, func() metric { return newHistogram(f.buckets) }).(*Histogram)
}

// ---- exposition --------------------------------------------------------

// Render writes the full registry in the Prometheus text format.
func (r *Registry) Render() string {
	r.mu.Lock()
	families := append([]*family(nil), r.families...)
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range families {
		f.render(&b)
	}
	return b.String()
}

func (f *family) render(b *strings.Builder) {
	f.mu.Lock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	children := make([]metric, len(keys))
	for i, k := range keys {
		children[i] = f.children[k]
	}
	f.mu.Unlock()
	if len(children) == 0 {
		return
	}
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	for i, key := range keys {
		children[i].write(b, f.name, f.labelBlock(key))
	}
}

// labelBlock renders {name="value",...} for one child key, empty when the
// family has no labels.
func (f *family) labelBlock(key string) string {
	if len(f.labels) == 0 {
		return ""
	}
	values := strings.Split(key, "\xff")
	parts := make([]string, len(f.labels))
	for i, name := range f.labels {
		parts[i] = name + `="` + escapeLabel(values[i]) + `"`
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// Handler serves the registry at GET <anything>, the /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(r.Render()))
	})
}
