package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"runtime/debug"
	"time"
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64   // of the op sequence
	corpus   int64   // of the generators: corpusSeed(seed), filled in by workload.run
	seconds  float64 // length of the measured phase
	ops      int     // when positive, measure exactly this many ops instead
	trace    bool
	outDir   string

	// The harness's tests shrink the corpus and set up once, to stay within
	// seconds; a zero leaves the workload's own size and setupRepeats.
	fragments, sources, setups int
}

// setupRepeats is how many times an end-to-end run sets the system up;
// setup_s is the median, the last system is the one measured.
const setupRepeats = 3

// ftSources is the paper's count of structured sources.
const ftSources = 20

// orDefault returns override when it is set and def otherwise.
func orDefault(override, def int) int {
	if override > 0 {
		return override
	}
	return def
}

// workload is one closed loop with a single client goroutine over a fixed,
// seed-determined op sequence.
type workload struct {
	name   string
	why    string
	tailQ  float64 // the percentile op_tail_ms reports on this workload
	round  int     // the shortest stretch of ops holding every kind of op
	warmup int     // ops run and discarded at the end of each set-up
	// memOps is how many ops, from the first measured one, alloc_kb_per_op
	// and peak_rss_mb cover: a fixed stretch of the op sequence, so that
	// neither depends on how many ops the machine got through in the time.
	memOps  int
	topRung string // rung of the traced op that equals the untraced op
	// prepare, when set, builds reference data once, before the timed
	// set-ups; setup receives what it returned.
	prepare func(ctx context.Context, cfg config) (any, error)
	setup   func(ctx context.Context, cfg config, prepared any) (runner, error)
}

// runner is a set-up system ready to run its workload's ops.
type runner interface {
	// op runs op i and returns its latency: the time from the first request
	// to the last reply. Output checks run after the clock stops.
	op(ctx context.Context, i int) (time.Duration, error)
	// tracedOp runs op i under the tracer, at one or all rungs of the ladder.
	tracedOp(ctx context.Context, tr *tracer, i int) error
	// layers computes the workload's per-layer metrics after the traced ops.
	layers(tr *tracer) map[string]float64
	// finish runs the checks that need the whole run.
	finish(ctx context.Context) error
	close() error
}

var workloads = []workload{batchFuse, readLocal, liveMixed, clusterRead}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// run resolves the corpus seed and runs the workload traced or end to end;
// it returns the metric declarations the result was filled from.
func (w workload) run(ctx context.Context, cfg config, log io.Writer) (result, []metricDef, error) {
	cfg.corpus = corpusSeed(cfg.seed, orDefault(cfg.sources, ftSources))
	if cfg.trace {
		res, err := runTraced(ctx, w, cfg, log)
		return res, perLayer, err
	}
	res, err := runEndToEnd(ctx, w, cfg, log)
	return res, endToEnd, err
}

func (w workload) prepared(ctx context.Context, cfg config) (any, error) {
	if w.prepare == nil {
		return nil, nil
	}
	v, err := w.prepare(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	debug.FreeOSMemory()
	return v, nil
}

// setUp builds the system and runs the warm-up ops, which are discarded.
func (w workload) setUp(ctx context.Context, cfg config, prepared any) (runner, error) {
	r, err := w.setup(ctx, cfg, prepared)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	for i := 0; i < w.warmup; i++ {
		if _, err := r.op(ctx, i); err != nil {
			return nil, errors.Join(fmt.Errorf("warm-up op %d: %w", i, err), r.close())
		}
	}
	return r, nil
}

// phase is what a measured stretch of ops leaves behind.
type phase struct {
	attempted, failed int
	firstErr          error
	lat               []time.Duration // successful ops only
	wall, cpu         time.Duration   // across the phase: elapsed, and the process's CPU time
	memBefore, mem    memSnapshot
	// Taken when the workload's memOps ops had run, or at the end when fewer
	// did: the ops covered, the bytes allocated over them, and the process's
	// resident-set high-water mark.
	memOps     int
	allocBytes uint64
	peakRSSMB  float64
	rssErr     error
}

// measure runs ops first, first+1, ... through do until the time or op budget
// is used up. A time budget ends on a round boundary, so that every run
// holds the same mix of ops.
func (w workload) measure(ctx context.Context, cfg config, seconds float64, first int, do func(ctx context.Context, i int) (time.Duration, error)) phase {
	runtime.GC()
	var p phase
	p.memBefore = readMem()
	start, cpu0 := time.Now(), cpuTime()
	for i := 0; ; i++ {
		if cfg.ops > 0 {
			if i >= cfg.ops {
				break
			}
		} else if i%w.round == 0 && time.Since(start).Seconds() >= seconds {
			break
		}
		d, err := do(ctx, first+i)
		p.attempted++
		if err != nil {
			p.failed++
			if p.firstErr == nil {
				p.firstErr = fmt.Errorf("op %d: %w", first+i, err)
			}
			continue
		}
		p.lat = append(p.lat, d)
		if p.attempted == w.memOps {
			p.memWindow(readMem())
		}
	}
	p.wall, p.cpu = time.Since(start), cpuTime()-cpu0
	p.mem = readMem()
	if p.memOps == 0 {
		p.memWindow(p.mem)
	}
	return p
}

func (p *phase) memWindow(now memSnapshot) {
	p.memOps, p.allocBytes = p.attempted, now.totalAlloc-p.memBefore.totalAlloc
	p.peakRSSMB, p.rssErr = peakRSSMB()
}

// timings computes the opTimings from the latencies of ops that succeeded
// and the CPU time the process spent on them: ops per second of busy time,
// the median and the workload's tail percentile, and CPU time per op.
func (w workload) timings(lat []time.Duration, cpu time.Duration) map[string]float64 {
	sorted := sortedCopy(msAll(lat))
	var busy time.Duration
	for _, d := range lat {
		busy += d
	}
	return map[string]float64{
		"ops_per_s":     float64(len(lat)) / busy.Seconds(),
		"op_p50_ms":     quantile(sorted, 0.5),
		"op_tail_ms":    quantile(sorted, w.tailQ),
		"cpu_ms_per_op": ms(cpu) / float64(len(lat)),
	}
}

// runEndToEnd sets up setupRepeats times, measures with tracing off and
// reports the end-to-end metrics.
func runEndToEnd(ctx context.Context, w workload, cfg config, log io.Writer) (result, error) {
	prepared, err := w.prepared(ctx, cfg)
	if err != nil {
		return result{}, err
	}
	var (
		r      runner
		setups []float64
	)
	for k := 0; k < orDefault(cfg.setups, setupRepeats); k++ {
		if r != nil {
			if err := r.close(); err != nil {
				return result{}, fmt.Errorf("closing set-up %d: %w", k, err)
			}
			r = nil
			// Hand the discarded system's memory back, so that peak_rss_mb
			// is the measured system's and not the overlap of two.
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		if r, err = w.setUp(ctx, cfg, prepared); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	p := w.measure(ctx, cfg, cfg.seconds, w.warmup, r.op)
	finishErr := r.finish(ctx)
	if err := r.close(); err != nil {
		return result{}, err
	}
	if len(p.lat) == 0 {
		return result{}, fmt.Errorf("no op succeeded: %w", p.firstErr)
	}
	if p.rssErr != nil {
		return result{}, p.rssErr
	}

	values := map[string]float64{
		"setup_s":         median(setups),
		"alloc_kb_per_op": float64(p.allocBytes) / 1024 / float64(p.memOps),
		"peak_rss_mb":     p.peakRSSMB,
	}
	fmt.Fprintf(log, "%s seed %d: %d ops over %.2f s; set-up times %.3f s\n", w.name, cfg.seed, p.attempted, p.wall.Seconds(), setups)
	// The op timings carry no bound and are not part of this run's result;
	// they are printed for whoever compares two commits by paired runs.
	timings := w.timings(p.lat, p.cpu)
	for _, d := range opTimings {
		fmt.Fprintf(log, "unbounded: %-23s %16.6f %s\n", d.name, timings[d.name], d.unit)
	}
	fmt.Fprintf(log, "op_tail_ms is p%g with %d samples beyond it (sample supports p%g)\n",
		w.tailQ*100, samplesBeyond(len(p.lat), w.tailQ), supportedTail(len(p.lat))*100)
	for _, e := range []error{p.firstErr, finishErr} {
		if e != nil {
			fmt.Fprintf(log, "FAILED CHECK: %v\n", e)
		}
	}
	return newResult(endToEnd, values, p.attempted, p.failed, p.failed == 0 && finishErr == nil)
}

// runTraced sets up once, runs traced ops with plain ones between them, and
// reports the per-layer metrics. It reports no end-to-end metric: those
// are only ever taken with tracing off.
func runTraced(ctx context.Context, w workload, cfg config, log io.Writer) (result, error) {
	prepared, err := w.prepared(ctx, cfg)
	if err != nil {
		return result{}, err
	}
	r, err := w.setUp(ctx, cfg, prepared)
	if err != nil {
		return result{}, err
	}
	cpuBefore, memBefore := calibrate()

	// Every third op is a plain one: the base the tracing overhead is taken
	// against runs through the same stretch of the run as the traced ops do,
	// so neither machine drift nor a growing corpus separates the two.
	var (
		plain        []time.Duration
		plainCPU     time.Duration
		plainMallocs uint64
	)
	tr := newTracer()
	p := w.measure(ctx, cfg, cfg.seconds, w.warmup, func(ctx context.Context, i int) (time.Duration, error) {
		if (i-w.warmup)%3 != 0 {
			t0 := time.Now()
			err := r.tracedOp(ctx, tr, i)
			return time.Since(t0), err
		}
		before, cpu0 := readMem(), cpuTime()
		d, err := r.op(ctx, i)
		if err == nil {
			plain = append(plain, d)
			plainCPU += cpuTime() - cpu0
		}
		plainMallocs += readMem().mallocs - before.mallocs
		return d, err
	})
	finishErr := r.finish(ctx)
	values := r.layers(tr)
	if err := r.close(); err != nil {
		return result{}, err
	}
	cpuAfter, memAfter := calibrate()
	if err := tr.write(cfg.outDir, w.name); err != nil {
		return result{}, err
	}

	if len(plain) > 0 {
		for name, v := range w.timings(plain, plainCPU) {
			values[name] = v
		}
	}
	values["harness.measured_s"] = p.wall.Seconds()
	values["harness.ops"] = float64(p.attempted)
	values["harness.gc_cycles"] = float64(p.mem.numGC - p.memBefore.numGC)
	values["harness.gc_pause_ms_total"] = float64(p.mem.pauseNs-p.memBefore.pauseNs) / 1e6
	values["harness.allocs_per_op"] = float64(plainMallocs) / float64(max(len(plain), 1))
	values["harness.calib_cpu_us"] = (cpuBefore + cpuAfter) / 2
	values["harness.calib_mem_us"] = (memBefore + memAfter) / 2
	if base := median(msAll(plain)); base > 0 {
		values["harness.trace_overhead_pct"] = (tr.p50("op", w.topRung) - base) / base * 100
	}
	fmt.Fprintf(log, "%s seed %d: %d ops, %d of them plain, %d spans\n", w.name, cfg.seed, p.attempted, len(plain), len(tr.spans))
	fmt.Fprintf(log, "calibration before/after: cpu %.0f/%.0f us, mem %.0f/%.0f us\n", cpuBefore, cpuAfter, memBefore, memAfter)
	for _, e := range []error{p.firstErr, finishErr} {
		if e != nil {
			fmt.Fprintf(log, "FAILED CHECK: %v\n", e)
		}
	}
	return newResult(perLayer, values, p.attempted, p.failed, p.failed == 0 && finishErr == nil)
}

// calibrate times a fixed hash loop and a fixed walk over 64 MB, in
// microseconds. Run before and after the measured phase, the pair shows
// whether the machine was disturbed while the benchmark ran.
func calibrate() (cpuUS, memUS float64) {
	t0 := time.Now()
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 1<<19; i++ {
		buf[0], buf[1], buf[2] = byte(i), byte(i>>8), byte(i>>16)
		_, _ = h.Write(buf[:])
	}
	calibSink = h.Sum64()
	cpuUS = float64(time.Since(t0)) / 1e3

	// A cyclic walk whose stride of 4099 cache lines defeats the prefetcher:
	// every step is a cache miss.
	const n = 64 << 20 / 8
	const stride = 4099 * 8
	next := make([]uint64, n)
	for i := range next {
		next[i] = uint64((i + stride) % n)
	}
	t0 = time.Now()
	var at uint64
	for i := 0; i < 1<<18; i++ {
		at = next[at]
	}
	calibSink += at
	memUS = float64(time.Since(t0)) / 1e3
	return cpuUS, memUS
}

// calibSink keeps the calibration loops' results live.
var calibSink uint64
