package faultinject_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/dterr"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
)

// chaosCluster is a two-node loopback cluster with every shard call
// routed injector → resilient transport → wire codec, plus a fault-free
// single-process twin with the same seed for byte-level comparison.
type chaosCluster struct {
	srv  http.Handler // cluster-backed /v1 surface
	twin http.Handler // fault-free twin, same pipeline seed
	inj  *faultinject.Injector
}

func newChaosCluster(t *testing.T, seed int64) *chaosCluster {
	t.Helper()
	cfg := core.Config{Fragments: 300, FTSources: 5, Shards: 4, Seed: 6}
	ctx := context.Background()

	local := core.New(cfg)
	if err := local.Run(ctx); err != nil {
		t.Fatalf("twin run: %v", err)
	}

	// Node a hosts shards 0-1, node b hosts 2-3, for both namespaces.
	nodeA, nodeB := cluster.NewNode("chaos-a"), cluster.NewNode("chaos-b")
	nodeFor := func(idx int) *cluster.Node {
		if idx < 2 {
			return nodeA
		}
		return nodeB
	}
	for idx := 0; idx < cfg.Shards; idx++ {
		n := nodeFor(idx)
		n.AddShard(cluster.ShardKey(cluster.NSInstances, idx), store.NewCollection(cluster.NSInstances, 0))
		n.AddShard(cluster.ShardKey(cluster.NSEntities, idx), store.NewCollection(cluster.NSEntities, 0))
	}

	inj := faultinject.New(seed)
	// Tight backoffs and cooldowns keep the soak fast; the schedule stays
	// deterministic because jitter draws come from the fixed seed.
	mk := func(name string, n *cluster.Node) cluster.Transport {
		policy := cluster.RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond}
		breaker := cluster.NewBreaker(name, 5, 10*time.Millisecond)
		return cluster.NewResilientTransport(name, inj.Wrap(name, cluster.Loopback{Node: n}), policy, breaker, seed)
	}
	ta, tb := mk("chaos-a", nodeA), mk("chaos-b", nodeB)
	trFor := func(idx int) cluster.Transport {
		if idx < 2 {
			return ta
		}
		return tb
	}
	var instB, entB []store.ShardBackend
	for idx := 0; idx < cfg.Shards; idx++ {
		instB = append(instB, cluster.NewRemoteShard(cluster.NSInstances, idx, trFor(idx), nil))
		entB = append(entB, cluster.NewRemoteShard(cluster.NSEntities, idx, trFor(idx), nil))
	}
	instances, err := store.NewShardedBackends(cluster.NSInstances, "source_url", instB)
	if err != nil {
		t.Fatal(err)
	}
	entities, err := store.NewShardedBackends(cluster.NSEntities, "name", entB)
	if err != nil {
		t.Fatal(err)
	}
	tm := core.New(cfg)
	tm.SetStores(instances, entities)
	// Ingest runs fault-free: writes are never retried, so the schedule
	// only perturbs the read soak below.
	if err := tm.Run(ctx); err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	return &chaosCluster{srv: serve.New(tm), twin: serve.New(local), inj: inj}
}

func chaosGet(t *testing.T, h http.Handler, path string) (int, string, http.Header) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.String(), rec.Header()
}

var chaosPaths = []string{
	"/v1/stats",
	"/v1/types",
	"/v1/types?limit=3&offset=2",
	"/v1/top",
	"/v1/top?limit=4&offset=1",
	"/v1/cheapest",
	"/v1/cheapest?limit=2&offset=3",
	"/v1/find?q=type%20%3D%20Movie",
	"/v1/find?q=award%20exists&limit=5",
	"/v1/show?name=Matilda",
}

// TestClusterChaosSoak is the resilience acceptance test: a seeded fault
// schedule (typed failures, dropped replies, latency, then a full
// partition) runs against the whole /v1 read surface, concurrently,
// under -race. Reads must never surface a 5xx; a partition must surface
// the degraded envelope (and 429 under ?partial=0); and once the faults
// heal, every response must be byte-identical to the fault-free twin.
func TestClusterChaosSoak(t *testing.T) {
	cc := newChaosCluster(t, 42)

	// Sanity: fault-free cluster matches the twin byte-for-byte.
	for _, path := range chaosPaths {
		tc, tb, _ := chaosGet(t, cc.twin, path)
		gc, gb, _ := chaosGet(t, cc.srv, path)
		if tc != gc || tb != gb {
			t.Fatalf("%s: pre-fault divergence: %d vs %d\ntwin:    %s\ncluster: %s", path, tc, gc, tb, gb)
		}
	}

	// Phase 1: probabilistic faults on node b, mild latency on node a,
	// hammered from several goroutines. Zero 5xx tolerated; transient
	// shard failures either recover via retry or degrade to partials.
	cc.inj.SetRules(
		faultinject.Rule{Node: "chaos-b", Prob: 0.25, Fault: faultinject.Fault{Code: dterr.CodeUnavailable}},
		faultinject.Rule{Node: "chaos-b", Prob: 0.15, Fault: faultinject.Fault{Drop: true}},
		faultinject.Rule{Node: "chaos-b", Prob: 0.10, Fault: faultinject.Fault{Duplicate: true}},
		faultinject.Rule{Node: "chaos-a", Prob: 0.10, Fault: faultinject.Fault{Latency: time.Millisecond}},
	)
	iters := 25
	if testing.Short() {
		iters = 5
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var failures []string
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				for _, path := range chaosPaths {
					code, body, _ := chaosGet(t, cc.srv, path)
					if code >= 500 {
						mu.Lock()
						failures = append(failures, fmt.Sprintf("%s -> %d: %s", path, code, body))
						mu.Unlock()
					}
				}
			}
		}()
	}
	wg.Wait()
	if len(failures) > 0 {
		t.Fatalf("%d requests surfaced 5xx under probabilistic faults, e.g. %s", len(failures), failures[0])
	}
	injected := cc.inj.Injected()
	if injected["error"] == 0 || injected["drop"] == 0 {
		t.Fatalf("fault schedule never fired (injected=%v) — the soak tested nothing", injected)
	}

	// Phase 2: full partition of node b. Fan-out reads must degrade, not
	// fail: 200 with the missing-shard count, and the degraded header.
	cc.inj.SetRules()
	cc.inj.Partition("chaos-b")
	code, body, hdr := chaosGet(t, cc.srv, "/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("/v1/stats during partition = %d (want 200 degraded): %s", code, body)
	}
	// Stats reads both namespaces, so losing node b loses 2 shards x 2
	// namespaces = 4 distinct shard reads.
	if !strings.Contains(body, `"shards_missing": 4`) && !strings.Contains(body, `"shards_missing":4`) {
		t.Fatalf("/v1/stats during partition missing degraded marker: %s", body)
	}
	if got := hdr.Get("X-DT-Degraded"); got != "shards_missing=4" {
		t.Fatalf("X-DT-Degraded = %q, want shards_missing=4", got)
	}
	// Strict clients opt out of partials and get the busy taxonomy.
	if code, body, _ := chaosGet(t, cc.srv, "/v1/stats?partial=0"); code != http.StatusTooManyRequests {
		t.Fatalf("/v1/stats?partial=0 during partition = %d (want 429): %s", code, body)
	}

	// Phase 3: heal everything. Once the breaker's cooldown passes and a
	// probe succeeds, every path must converge to the twin byte-for-byte.
	cc.inj.HealAll()
	deadline := time.Now().Add(10 * time.Second)
	for _, path := range chaosPaths {
		tc, tb, _ := chaosGet(t, cc.twin, path)
		for {
			gc, gb, gh := chaosGet(t, cc.srv, path)
			if gc == tc && gb == tb && gh.Get("X-DT-Degraded") == "" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never converged after heal: %d vs %d\ntwin:    %s\ncluster: %s", path, tc, gc, tb, gb)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// The resilience layer must have left its telemetry behind.
	mrec := httptest.NewRecorder()
	obs.Default().Handler().ServeHTTP(mrec, httptest.NewRequest("GET", "/metrics", nil))
	metrics := mrec.Body.String()
	for _, want := range []string{
		`dt_cluster_breaker_state{node="chaos-b"}`,
		`dt_cluster_retries_total`,
		`dt_cluster_breaker_transitions_total{node="chaos-b",to="open"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}
