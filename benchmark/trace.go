package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// The ladder's rungs, top down. The harness issues the same logical request
// at each rung, so a layer's self time is its rung's median minus the median
// of the rung below.
const (
	rungClient = "client" // SDK call over the loopback listener
	rungServe  = "serve"  // Handler.ServeHTTP on an httptest recorder
	rungLive   = "live"   // live.Ingester method (writes only)
	rungCore   = "core"   // core.Tamer method
	rungStore  = "store"  // store.Sharded method
)

// span is one timed call into a layer. Start and End are nanoseconds since
// the tracer was created; Parent is the index of the span that caused this
// one, -1 for an op's root span.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Rung   string `json:"rung"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)}
}

// begin opens a span and returns its index for end and for children.
func (tr *tracer) begin(name, rung string, op, parent int) int {
	tr.spans = append(tr.spans, span{Name: name, Op: op, Rung: rung, Start: int64(time.Since(tr.t0)), Parent: parent})
	return len(tr.spans) - 1
}

// end closes the span.
func (tr *tracer) end(id int) { tr.spans[id].End = int64(time.Since(tr.t0)) }

// durationsMS lists the durations of the closed spans with this name and rung.
func (tr *tracer) durationsMS(name, rung string) []float64 {
	var out []float64
	for _, s := range tr.spans {
		if s.Name == name && s.Rung == rung && s.End > 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// p50 is the median duration in ms of the spans with this name and rung, 0
// when there are none.
func (tr *tracer) p50(name, rung string) float64 {
	return median(tr.durationsMS(name, rung))
}

// write stores the spans as JSON under dir.
func (tr *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".trace.json"), data, 0o644)
}

// selfTimes turns per-rung totals, ordered top rung first, into per-rung
// self times: each rung minus the one below it, the bottom rung whole. A
// rung that measured faster than the one below it, which only noise can
// cause, has self time 0.
func selfTimes(rungTotals []float64) []float64 {
	out := make([]float64, len(rungTotals))
	for i, total := range rungTotals {
		below := 0.0
		if i+1 < len(rungTotals) {
			below = rungTotals[i+1]
		}
		out[i] = max(total-below, 0)
	}
	return out
}
