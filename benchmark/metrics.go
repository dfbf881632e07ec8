package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one metric and its unit; BENCHMARK.json repeats these
// lists and a test keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd is reported by every workload with tracing off. It holds the
// costs that repeat from run to run on a shared host; opTimings, which do
// not, are per-layer metrics (see README.md, "Why the op timings carry no
// bound").
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"alloc_kb_per_op", "KB"},
	{"peak_rss_mb", "MB"},
}

// opTimings are the whole op's rate, latency and CPU time. An end-to-end run
// prints them as text from its whole measured phase; a traced run reports
// them as metrics from its plain ops.
var opTimings = []metricDef{
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
}

// readRoutes are the page-view routes, each with a client, serve and core
// rung; storeRungs are the store calls below them.
var (
	readRoutes = []string{"show", "find_eq", "find_prefix", "find_scan", "find_and", "top", "cheapest", "types", "stats"}
	storeRungs = []string{"find_eq", "find_prefix", "find_scan", "find_and", "distinct", "stats", "text_contains"}
)

// perLayer is reported by every workload with tracing on; a layer that does
// nothing on a workload reports 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		// batch_fuse: the four stages, then replays of the calls inside them.
		{"core.ingest_webtext_ms", "ms"},
		{"core.import_ftables_ms", "ms"},
		{"core.clean_consolidate_ms", "ms"},
		{"core.tables_ms", "ms"},
		{"datagen.webtext_ms", "ms"},
		{"datagen.ftables_ms", "ms"},
		{"extract.parse_us_per_fragment", "us"},
		{"extract.entities_per_fragment", "count"},
		{"store.insert_us_per_doc", "us"},
		{"store.docs_inserted", "count"},
		{"match.match_source_ms", "ms"},
		{"match.attrs_reviewed", "count"},
		{"clean.apply_all_ms", "ms"},
		{"dedup.train_ms", "ms"},
		{"dedup.candidate_pairs", "count"},
		{"dedup.run_ms", "ms"},
		{"dedup.merges_per_pair", "ratio"},
		{"fuse.records_out", "count"},
	}
	// read_local and cluster_read: the ladder, one p50 per route and rung.
	for _, rung := range []string{"client", "serve", "core"} {
		for _, r := range readRoutes {
			defs = append(defs, metricDef{rung + "." + r + "_p50_ms", "ms"})
		}
	}
	for _, r := range storeRungs {
		defs = append(defs, metricDef{"store." + r + "_p50_ms", "ms"})
	}
	defs = append(defs, []metricDef{
		{"client.self_ms_per_op", "ms"},
		{"serve.self_ms_per_op", "ms"},
		{"core.self_ms_per_op", "ms"},
		{"store.self_ms_per_op", "ms"},
		{"serve.resp_kb_per_op", "KB"},
		{"store.docs_returned_per_op", "count"},
		{"client.op_p99_ms", "ms"},
		{"cluster.calls_per_op", "count"},
		{"cluster.call_mean_ms", "ms"},
		{"cluster.kb_per_op", "KB"},
		// live_mixed.
		{"live.ingest_ack_p50_ms", "ms"},
		{"live.visible_p50_ms", "ms"},
		{"live.visible_p95_ms", "ms"},
		{"live.records_ack_p50_ms", "ms"},
		{"core.refresh_fused_p50_ms", "ms"},
		{"live.checkpoint_p50_ms", "ms"},
		{"live.wal_bytes_per_fragment", "B"},
		{"live.wal_bytes_per_user_byte", "ratio"},
		{"live.batches_per_cycle", "count"},
		{"live.avg_batch_ms", "ms"},
		{"live.apply_errors", "count"},
		{"serve.view_miss_p50_ms", "ms"},
		{"serve.view_hit_p50_ms", "ms"},
		{"serve.cache_hit_ratio", "ratio"},
		{"live.self_ms_per_op", "ms"},
		{"core.apply_us_per_fragment", "us"},
	}...)
	// every workload: the whole op, then the harness itself.
	defs = append(defs, opTimings...)
	return append(defs, []metricDef{
		{"harness.measured_s", "s"},
		{"harness.ops", "count"},
		{"harness.gc_cycles", "count"},
		{"harness.gc_pause_ms_total", "ms"},
		{"harness.allocs_per_op", "count"},
		{"harness.calib_cpu_us", "us"},
		{"harness.calib_mem_us", "us"},
		{"harness.trace_overhead_pct", "%"},
	}...)
}

// result is one run's outcome in the shape the last output line carries.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// newResult fills in every metric of defs from values, so that a run prints
// each declared name exactly once; a name values lacks reads 0.
func newResult(defs []metricDef, values map[string]float64, attempted, failed int, correct bool) (result, error) {
	known := make(map[string]bool, len(defs))
	r := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		known[d.name] = true
		r.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	for name := range values {
		if !known[name] {
			return result{}, fmt.Errorf("metric %q is not declared", name)
		}
	}
	return r, nil
}

// print writes one "name value unit" line per metric in declaration order
// and the JSON object as the last line.
func (r result) print(w io.Writer, defs []metricDef) error {
	for _, d := range defs {
		fmt.Fprintf(w, "%-34s %16.6f %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
	fmt.Fprintf(w, "attempted %d failed %d correct %v\n", r.Attempted, r.Failed, r.Correct)
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// memSnapshot is the part of runtime.MemStats the harness differences
// across a measured phase.
type memSnapshot struct {
	totalAlloc, mallocs, pauseNs uint64
	numGC                        uint32
}

func readMem() memSnapshot {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnapshot{totalAlloc: m.TotalAlloc, mallocs: m.Mallocs, pauseNs: m.PauseTotalNs, numGC: m.NumGC}
}
