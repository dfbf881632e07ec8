package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/client"
	"repro/internal/obs"
)

const readFragments = 5000

var readLocal = workload{
	name:    "read_local",
	why:     "page views with every cache above core off: store scan and index, core views, serve encode and the SDK; live and cluster do nothing",
	tailQ:   0.95,
	round:   10,
	warmup:  3,
	memOps:  100,
	topRung: rungClient,
	setup: func(ctx context.Context, cfg config, _ any) (runner, error) {
		return newReadRunner(ctx, cfg, false, nil)
	},
}

var clusterRead = workload{
	name:    "cluster_read",
	why:     "read_local's page views with the stores behind two nodes over TCP loopback: cluster proto, transport and remote shards do most of the work",
	tailQ:   0.95,
	round:   10,
	warmup:  3,
	memOps:  50,
	topRung: rungClient,
	prepare: func(ctx context.Context, cfg config) (any, error) { return localTwinReplies(ctx, cfg) },
	setup: func(ctx context.Context, cfg config, twin any) (runner, error) {
		return newReadRunner(ctx, cfg, true, twin.(replyBook))
	},
}

// readRunner runs page views against a system whose serve cache is off.
type readRunner struct {
	sys   *system
	plan  viewPlan
	book  replyBook
	local replyBook // cluster_read: the replies of a local twin, which the cluster's must equal

	// wireViews counts the views the stores served, a traced view as one per
	// rung, since the set-up whose counters clusterBefore holds.
	wireViews     int
	clusterBefore clusterCounters

	// Traced views: what the rungs below the SDK returned, per view.
	respBytes, docsReturned []float64
}

func newReadRunner(ctx context.Context, cfg config, clustered bool, local replyBook) (*readRunner, error) {
	sys, err := buildSystem(ctx, readSpec(cfg, clustered))
	if err != nil {
		return nil, err
	}
	return &readRunner{
		sys: sys, plan: newViewPlan(cfg.seed, fusedShowNames(sys.tamer)), book: replyBook{}, local: local,
		clusterBefore: readClusterCounters(sys),
	}, nil
}

func readSpec(cfg config, clustered bool) systemSpec {
	return systemSpec{
		fragments: orDefault(cfg.fragments, readFragments), sources: orDefault(cfg.sources, ftSources),
		seed: cfg.corpus, cacheOff: true, clustered: clustered,
	}
}

// localTwinReplies builds read_local's system for the same seed, records the
// reply to every distinct request of the plan, and discards the system. It
// is reference data, built once before the timed set-ups.
func localTwinReplies(ctx context.Context, cfg config) (replyBook, error) {
	twin, err := buildSystem(ctx, readSpec(cfg, false))
	if err != nil {
		return nil, fmt.Errorf("local twin: %w", err)
	}
	reqs := newViewPlan(cfg.seed, fusedShowNames(twin.tamer)).distinct()
	book := replyBook{}
	replies, err := sdkView(ctx, twin.sdk, reqs)
	if err == nil {
		err = book.check(reqs, replies)
	}
	if err != nil {
		return nil, errors.Join(fmt.Errorf("local twin: %w", err), twin.close())
	}
	return book, twin.close()
}

// check fails a view whose replies changed since the request was first
// seen or, on cluster_read, differ from the local twin's.
func (r *readRunner) check(reqs []request, replies []any) error {
	if err := r.book.check(reqs, replies); err != nil {
		return err
	}
	for _, q := range reqs {
		id := q.route + " " + q.key
		if want, ok := r.local[id]; r.local != nil && (!ok || want != r.book[id]) {
			return fmt.Errorf("%s: cluster reply %016x differs from the local twin's %016x", id, r.book[id], want)
		}
	}
	return nil
}

func (r *readRunner) op(ctx context.Context, i int) (time.Duration, error) {
	reqs := r.plan.view(i)
	r.wireViews++
	t0 := time.Now()
	replies, err := sdkView(ctx, r.sys.sdk, reqs)
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	return d, r.check(reqs, replies)
}

// tracedOp runs view i once at each rung: through the SDK, through the
// handler on a recorder, through core's methods and through the store's.
func (r *readRunner) tracedOp(ctx context.Context, tr *tracer, i int) error {
	r.wireViews += 4
	reqs := r.plan.view(i)
	replies, err := tracedSDKView(ctx, tr, r.sys.sdk, reqs, i, "op")
	if err != nil {
		return err
	}
	if err := r.check(reqs, replies); err != nil {
		return err
	}
	bytes, err := tracedServeView(ctx, tr, r.sys.handler, reqs, i)
	if err != nil {
		return err
	}
	r.respBytes = append(r.respBytes, float64(bytes))

	root := tr.begin("op", rungCore, i, -1)
	for _, q := range reqs {
		id := tr.begin(q.route, rungCore, i, root)
		_, err := q.core(ctx, r.sys.tamer)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("core rung %s: %w", q.route, err)
		}
	}
	tr.end(root)

	root = tr.begin("op", rungStore, i, -1)
	docs := 0
	for _, q := range reqs {
		if q.store == nil {
			continue
		}
		id := tr.begin(storeRungOf[q.route], rungStore, i, root)
		n, err := q.store(ctx, r.sys.tamer)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("store rung %s: %w", storeRungOf[q.route], err)
		}
		docs += n
	}
	tr.end(root)
	r.docsReturned = append(r.docsReturned, float64(docs))
	return nil
}

// tracedSDKView is sdkView with a span per request below a span named name.
func tracedSDKView(ctx context.Context, tr *tracer, c *client.Client, reqs []request, op int, name string) ([]any, error) {
	replies := make([]any, len(reqs))
	root := tr.begin(name, rungClient, op, -1)
	defer tr.end(root)
	for j, q := range reqs {
		id := tr.begin(q.route, rungClient, op, root)
		reply, err := q.sdk(ctx, c)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("client rung %s %s: %w", q.route, q.key, err)
		}
		replies[j] = reply
	}
	return replies, nil
}

// tracedServeView runs the view's requests through the handler on a
// recorder and returns the bytes of the bodies.
func tracedServeView(ctx context.Context, tr *tracer, h http.Handler, reqs []request, op int) (int, error) {
	root := tr.begin("op", rungServe, op, -1)
	defer tr.end(root)
	total := 0
	for _, q := range reqs {
		id := tr.begin(q.route, rungServe, op, root)
		n, err := serveGET(ctx, h, q.path)
		tr.end(id)
		if err != nil {
			return 0, fmt.Errorf("serve rung: %w", err)
		}
		total += n
	}
	return total, nil
}

// requestsPerView is how many requests of each route one page view holds.
func requestsPerView(route string) float64 {
	if route == "show" {
		return showsPerView
	}
	return 1
}

// storeRungOf names the store rung below each route's core call.
var storeRungOf = map[string]string{
	"show": "text_contains", "find_eq": "find_eq", "find_prefix": "find_prefix",
	"find_scan": "find_scan", "find_and": "find_and", "types": "distinct", "stats": "stats",
}

// ladderMetrics reports each route's p50 at each rung and, summed over the
// requests of one page view, each layer's self time.
func ladderMetrics(tr *tracer) map[string]float64 {
	v := map[string]float64{}
	totals := make([]float64, 4) // client, serve, core, store
	for _, route := range readRoutes {
		n := requestsPerView(route)
		for k, rung := range []string{rungClient, rungServe, rungCore} {
			p50 := tr.p50(route, rung)
			v[rung+"."+route+"_p50_ms"] = p50
			totals[k] += n * p50
		}
		if below, ok := storeRungOf[route]; ok {
			totals[3] += n * tr.p50(below, rungStore)
		}
	}
	for _, rung := range storeRungs {
		v["store."+rung+"_p50_ms"] = tr.p50(rung, rungStore)
	}
	self := selfTimes(totals)
	v["client.self_ms_per_op"], v["serve.self_ms_per_op"] = self[0], self[1]
	v["core.self_ms_per_op"], v["store.self_ms_per_op"] = self[2], self[3]
	return v
}

func (r *readRunner) layers(tr *tracer) map[string]float64 {
	v := ladderMetrics(tr)
	v["serve.resp_kb_per_op"] = mean(r.respBytes) / 1024
	v["store.docs_returned_per_op"] = mean(r.docsReturned)
	v["client.op_p99_ms"] = quantile(sortedCopy(tr.durationsMS("op", rungClient)), 0.99)
	if r.sys.cl != nil && r.wireViews > 0 {
		d := readClusterCounters(r.sys).minus(r.clusterBefore)
		perView := float64(r.wireViews)
		v["cluster.calls_per_op"] = d.calls / perView
		v["cluster.kb_per_op"] = d.bytes / 1024 / perView
		if d.calls > 0 {
			v["cluster.call_mean_ms"] = d.seconds * 1e3 / d.calls
		}
	}
	return v
}

func (r *readRunner) finish(context.Context) error { return nil }
func (r *readRunner) close() error                 { return r.sys.close() }

// clusterCounters are the wire's running totals: the count and sum of
// dt_cluster_call_seconds in the process-wide registry, and the bytes the
// node listeners moved.
type clusterCounters struct{ calls, seconds, bytes float64 }

func readClusterCounters(s *system) clusterCounters {
	m := scrape(obs.Default().Render())
	return clusterCounters{
		calls:   m.sum("dt_cluster_call_seconds_count"),
		seconds: m.sum("dt_cluster_call_seconds_sum"),
		bytes:   float64(s.clusterBytes()),
	}
}

func (c clusterCounters) minus(o clusterCounters) clusterCounters {
	return clusterCounters{c.calls - o.calls, c.seconds - o.seconds, c.bytes - o.bytes}
}
