// Cluster-mode integration tests: real dtnode processes (or an in-process
// node) on ephemeral ports, a coordinator connected via cluster.json, and
// the /v1 surface compared byte-for-byte against a single-process
// pipeline. Named TestCluster* so CI can select them with -run TestCluster.
package datatamer

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/record"
)

// buildDTNode compiles cmd/dtnode once into dir and returns the binary path.
func buildDTNode(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "dtnode")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/dtnode")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/dtnode: %v\n%s", err, out)
	}
	return bin
}

// startProc launches a dtnode and registers cleanup that kills and reaps it.
func startProc(t *testing.T, bin string, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", strings.Join(args, " "), err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	return cmd
}

// waitAddr polls a -port-file until the node has written its bound address.
func waitAddr(t *testing.T, portFile string) string {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(portFile); err == nil && len(b) > 0 {
			return string(b)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("node never wrote %s", portFile)
	return ""
}

func writeClusterJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// uncachedHandler returns the /v1 surface with the serve-tier response
// cache disabled: these tests assert what the CLUSTER does — stale-pool
// retries, shard-death busy errors, warm-restart equivalence — and a
// cache in front would answer from memory instead of exercising the
// transport.
func uncachedHandler(tm *Tamer) http.Handler {
	return tm.HandlerOptions(ServeOptions{CacheBytes: -1})
}

func httpGet(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.String()
}

func httpPost(t *testing.T, h http.Handler, path, body string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

type nodeJSON struct {
	Name     string `json:"name"`
	Addr     string `json:"addr"`
	Follower string `json:"follower,omitempty"`
	Shards   []int  `json:"shards"`
}

type configJSON struct {
	Shards int        `json:"shards"`
	Nodes  []nodeJSON `json:"nodes"`
}

// waitDial polls a TCP address until it accepts connections — how the
// tests wait for a restarted node to come back up on its fixed port.
func waitDial(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if c, err := net.Dial("tcp", addr); err == nil {
			c.Close()
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("node never came back on %s", addr)
}

// TestClusterWarmRestart is the durability acceptance test: dtnodes run
// with -data-dir, one is SIGKILLed mid-flight and restarted on the same
// address and data directory, and every /v1 response must come back
// byte-identical — the node recovered from its local WAL, the
// coordinator's stale pooled connections were absorbed by the transport
// retry, and a coordinator reopen against the warm cluster skips batch
// ingest entirely.
func TestClusterWarmRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	dir := t.TempDir()
	bin := buildDTNode(t, dir)
	ctx := context.Background()

	boot := filepath.Join(dir, "boot.json")
	writeClusterJSON(t, boot, configJSON{
		Shards: 2,
		Nodes: []nodeJSON{
			{Name: "node-a", Addr: "127.0.0.1:0", Shards: []int{0}},
			{Name: "node-b", Addr: "127.0.0.1:0", Shards: []int{1}},
		},
	})
	dataA := filepath.Join(dir, "data-a")
	dataB := filepath.Join(dir, "data-b")
	aPort := filepath.Join(dir, "a.port")
	bPort := filepath.Join(dir, "b.port")
	aCmd := startProc(t, bin, "-config", boot, "-name", "node-a", "-port-file", aPort, "-data-dir", dataA)
	startProc(t, bin, "-config", boot, "-name", "node-b", "-port-file", bPort, "-data-dir", dataB)
	addrA, addrB := waitAddr(t, aPort), waitAddr(t, bPort)

	final := filepath.Join(dir, "cluster.json")
	writeClusterJSON(t, final, configJSON{
		Shards: 2,
		Nodes: []nodeJSON{
			{Name: "node-a", Addr: addrA, Shards: []int{0}},
			{Name: "node-b", Addr: addrB, Shards: []int{1}},
		},
	})

	pipeOpts := []Option{WithFragments(200), WithSources(4), WithSeed(3)}
	walDir := filepath.Join(dir, "wal")
	local, err := Open(ctx, append([]Option{WithShards(2)}, pipeOpts...)...)
	if err != nil {
		t.Fatalf("local open: %v", err)
	}
	clusterOpts := append([]Option{WithCluster(final), WithLive(walDir)}, pipeOpts...)
	clustered, err := Open(ctx, clusterOpts...)
	if err != nil {
		t.Fatalf("cluster open: %v", err)
	}

	lh, ch := uncachedHandler(local), uncachedHandler(clustered)
	paths := []string{
		"/v1/stats",
		"/v1/types",
		"/v1/top?limit=5",
		"/v1/cheapest?limit=5&offset=2",
		"/v1/find?q=type%20%3D%20Movie&limit=3",
	}
	before := make(map[string]string, len(paths))
	for _, path := range paths {
		lc, lb := httpGet(t, lh, path)
		cc, cb := httpGet(t, ch, path)
		if lc != cc || lb != cb {
			t.Fatalf("%s: pre-restart divergence: %d vs %d\nlocal:   %s\ncluster: %s", path, lc, cc, lb, cb)
		}
		before[path] = cb
	}

	// SIGKILL node-a: no shutdown checkpoint, so the restart below must
	// recover the whole batch state from the startup checkpoint (empty)
	// plus the per-write-flushed shard WAL.
	aCmd.Process.Kill()
	aCmd.Wait()
	startProc(t, bin, "-config", final, "-name", "node-a", "-data-dir", dataA)
	waitDial(t, addrA)

	// Five sequential reads: the transport pools up to four idle
	// connections, all now dead, and each must be absorbed by the one-shot
	// retry instead of surfacing a busy error.
	for i := 0; i < 5; i++ {
		code, body := httpGet(t, ch, "/v1/stats")
		if code != http.StatusOK {
			t.Fatalf("stats %d after restart = %d (stale pooled conn leaked through): %s", i, code, body)
		}
		if body != before["/v1/stats"] {
			t.Fatalf("stats %d after restart diverged\nbefore: %s\nafter:  %s", i, before["/v1/stats"], body)
		}
	}
	for _, path := range paths {
		if code, body := httpGet(t, ch, path); code != http.StatusOK || body != before[path] {
			t.Fatalf("%s after restart = %d, body diverged from pre-kill state:\nbefore: %s\nafter:  %s",
				path, code, before[path], body)
		}
	}

	// The checkpoint API succeeds in cluster mode: the coordinator commits
	// what it owns and leaves the shards to their nodes.
	if code, body := httpPost(t, ch, "/v1/flush?checkpoint=1", ""); code != http.StatusOK {
		t.Fatalf("cluster checkpoint = %d, want 200: %s", code, body)
	}

	// Live ingest after the checkpoint, so the record rides the shard WAL
	// tail (and the coordinator WAL) across the reopen below.
	if code, body := httpPost(t, ch, "/v1/ingest/records",
		`{"source":"api_feed","records":[{"SHOW_NAME":"Warm Skyline","THEATER":"Majestic","CHEAPEST_PRICE":58}]}`); code != http.StatusAccepted {
		t.Fatalf("ingest = %d: %s", code, body)
	}
	if code, body := httpPost(t, ch, "/v1/flush", ""); code != http.StatusOK {
		t.Fatalf("flush = %d: %s", code, body)
	}
	afterIngest := make(map[string]string, len(paths))
	for _, path := range paths {
		_, afterIngest[path] = httpGet(t, ch, path)
	}

	// Clean coordinator shutdown checkpoints the coordinator, then a reopen
	// against the warm cluster must skip batch ingest — re-running it
	// would double every count — and serve identical responses.
	if err := clustered.Close(); err != nil {
		t.Fatalf("cluster close: %v", err)
	}
	reopened, err := Open(ctx, clusterOpts...)
	if err != nil {
		t.Fatalf("warm reopen: %v", err)
	}
	defer reopened.Close()
	rh := uncachedHandler(reopened)
	for _, path := range paths {
		if code, body := httpGet(t, rh, path); code != http.StatusOK || body != afterIngest[path] {
			t.Fatalf("%s after warm reopen = %d, diverged (batch ingest re-ran?)\nbefore: %s\nafter:  %s",
				path, code, afterIngest[path], body)
		}
	}
	if code, body := httpGet(t, rh, "/v1/show?name=Warm+Skyline"); code != http.StatusOK ||
		!strings.Contains(body, "Majestic") {
		t.Fatalf("ingested record lost across warm reopen = %d: %s", code, body)
	}
}

// TestClusterTwoNodeEndToEnd is the full-stack acceptance test: two dtnode
// processes plus one read replica on ephemeral TCP ports, the batch
// pipeline run through the coordinator, every /v1 read compared
// byte-for-byte against a single-process pipeline with the same seed, a
// live ingest round-trip, and degraded-mode behaviour as the processes
// are killed one by one.
func TestClusterTwoNodeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	dir := t.TempDir()
	bin := buildDTNode(t, dir)
	ctx := context.Background()

	// Bootstrap membership: addresses are ":0" placeholders — each node
	// binds an ephemeral port and reports it through -port-file, and the
	// real cluster.json is generated afterwards.
	boot := filepath.Join(dir, "boot.json")
	writeClusterJSON(t, boot, configJSON{
		Shards: 2,
		Nodes: []nodeJSON{
			{Name: "node-a", Addr: "127.0.0.1:0", Shards: []int{0}},
			{Name: "node-b", Addr: "127.0.0.1:0", Shards: []int{1}},
		},
	})
	aPort := filepath.Join(dir, "a.port")
	bPort := filepath.Join(dir, "b.port")
	fPort := filepath.Join(dir, "f.port")
	aCmd := startProc(t, bin, "-config", boot, "-name", "node-a", "-port-file", aPort)
	startProc(t, bin, "-config", boot, "-name", "node-b", "-port-file", bPort)
	addrA, addrB := waitAddr(t, aPort), waitAddr(t, bPort)

	// The replica assumes node-a's identity (same shard set) and pulls
	// node-a's images.
	folCmd := startProc(t, bin, "-config", boot, "-name", "node-a",
		"-follow", "-primary", addrA, "-addr", "127.0.0.1:0",
		"-port-file", fPort, "-pull-interval", "5ms")
	addrF := waitAddr(t, fPort)

	final := filepath.Join(dir, "cluster.json")
	writeClusterJSON(t, final, configJSON{
		Shards: 2,
		Nodes: []nodeJSON{
			{Name: "node-a", Addr: addrA, Follower: addrF, Shards: []int{0}},
			{Name: "node-b", Addr: addrB, Shards: []int{1}},
		},
	})

	// Same pipeline twice: locally, and with all shard traffic over TCP.
	pipeOpts := []Option{WithFragments(200), WithSources(4), WithSeed(3)}
	local, err := Open(ctx, append([]Option{WithShards(2)}, pipeOpts...)...)
	if err != nil {
		t.Fatalf("local open: %v", err)
	}
	clustered, err := Open(ctx, append([]Option{
		WithCluster(final),
		WithLive(filepath.Join(dir, "wal")),
	}, pipeOpts...)...)
	if err != nil {
		t.Fatalf("cluster open: %v", err)
	}
	defer clustered.Close()

	// A name guaranteed to exist at this scale, for the /v1/show probe.
	top, err := local.TopDiscussed(ctx, 1)
	if err != nil || len(top) == 0 {
		t.Fatalf("top-discussed: %v (%d rows)", err, len(top))
	}
	showPath := "/v1/show?name=" + url.QueryEscape(top[0].Name)

	lh, ch := uncachedHandler(local), uncachedHandler(clustered)
	paths := []string{
		"/v1/stats",
		"/v1/types",
		"/v1/types?limit=3&offset=1",
		"/v1/top?limit=5",
		"/v1/cheapest?limit=5&offset=2",
		"/v1/find?q=type%20%3D%20Movie&limit=3",
		"/v1/find?q=type%20%3D%20Movie&limit=3&offset=7",
		"/v1/find?q=type%20%3D%20Movie&limit=0",
		"/v1/find?q=name%20~%20the&limit=5&offset=100000",
		showPath,
	}
	for _, path := range paths {
		lc, lb := httpGet(t, lh, path)
		cc, cb := httpGet(t, ch, path)
		if lc != cc {
			t.Errorf("%s: status %d (local) != %d (cluster)", path, lc, cc)
			continue
		}
		if lb != cb {
			t.Errorf("%s: body differs\nlocal:   %s\ncluster: %s", path, lb, cb)
		}
	}
	// The plan crosses the wire as an explain-mode query: cluster mode
	// explains what local mode explains.
	for _, q := range []string{"type = Movie", "name ~ walking", "name ^ The AND type = Person"} {
		lp, lerr := local.ExplainFind(ctx, q)
		cp, cerr := clustered.ExplainFind(ctx, q)
		if lerr != nil || cerr != nil || lp != cp || lp.AccessPath == "" {
			t.Errorf("explain %q: local %+v (%v), cluster %+v (%v)", q, lp, lerr, cp, cerr)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	// Live ingest end to end: a streamed record lands on a shard node over
	// the wire and is immediately readable back through the coordinator.
	if code, body := httpPost(t, ch, "/v1/ingest/records",
		`{"source":"api_feed","records":[{"SHOW_NAME":"Cluster Skyline","THEATER":"Majestic","CHEAPEST_PRICE":58}]}`); code != http.StatusAccepted {
		t.Fatalf("ingest = %d: %s", code, body)
	}
	if code, body := httpPost(t, ch, "/v1/flush", ""); code != http.StatusOK {
		t.Fatalf("flush = %d: %s", code, body)
	}
	if code, body := httpGet(t, ch, "/v1/show?name=Cluster+Skyline"); code != http.StatusOK ||
		!strings.Contains(body, "Majestic") {
		t.Fatalf("show after ingest = %d: %s", code, body)
	}

	// Kill the replica mid-flight: reads must degrade gracefully to the
	// primary, not fail.
	folCmd.Process.Kill()
	folCmd.Wait()
	for _, path := range paths {
		if code, body := httpGet(t, ch, path); code != http.StatusOK && code != http.StatusNotFound {
			t.Fatalf("%s after replica death = %d: %s", path, code, body)
		}
	}

	// Kill a primary: shard 0 is now unreachable. Fan-out reads degrade
	// gracefully — 200 with the missing-shard count in the envelope and
	// the X-DT-Degraded header — instead of failing the whole request.
	aCmd.Process.Kill()
	aCmd.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body := httpGet(t, ch, "/v1/stats")
		if code == http.StatusOK && strings.Contains(body, `"shards_missing"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/v1/stats after primary death = %d (want 200 degraded): %s", code, body)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Strict clients opt out of partial results: ?partial=0 restores the
	// whole-or-nothing contract, surfacing the busy taxonomy (HTTP 429).
	deadline = time.Now().Add(10 * time.Second)
	for {
		code, body := httpGet(t, ch, "/v1/stats?partial=0")
		if code == http.StatusTooManyRequests && strings.Contains(body, `"busy"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/v1/stats?partial=0 after primary death = %d (want 429 busy): %s", code, body)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestClusterLiveOverMemoryOnlyNodes restarts a live coordinator twice over
// one in-process memory-only node, which keeps its documents across the
// restarts. The coordinator's checkpoint holds only what it owns (the fused
// view's members), so it commits even though the node persists nothing, and
// every reopen must find the live writes exactly once: neither re-applied
// from the coordinator WAL nor dropped from the fused view.
func TestClusterLiveOverMemoryOnlyNodes(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := &cluster.Config{Shards: 2, Nodes: []cluster.NodeSpec{
		{Name: "node-a", Addr: ln.Addr().String(), Shards: []int{0, 1}},
	}}
	node := cluster.BuildNode(cfg, &cfg.Nodes[0], false)
	served := make(chan error, 1)
	go func() { served <- node.Serve(ln) }()
	t.Cleanup(func() {
		ln.Close()
		if err := <-served; err != nil {
			t.Errorf("node serve: %v", err)
		}
		node.Close()
	})

	ctx := context.Background()
	opts := []Option{WithClusterConfig(cfg), WithLive(t.TempDir()),
		WithFragments(100), WithSources(3), WithSeed(2)}
	tm, err := Open(ctx, opts...)
	if err != nil {
		t.Fatal(err)
	}
	const show = "Quillmoor Lantern"
	base := tm.InstanceStats().Count
	if err := tm.IngestText(ctx, []Fragment{
		{URL: "http://live/1", Text: show + " an award-winning revival, grossed 300,000 this week."},
	}); err != nil {
		t.Fatal(err)
	}
	rec := record.New()
	rec.Set("SHOW_NAME", record.String(show))
	rec.Set("THEATER", record.String("Imperial"))
	rec.Set("CHEAPEST_PRICE", record.Int(41))
	if err := tm.IngestRecords(ctx, "live_feed", []*Record{rec}); err != nil {
		t.Fatal(err)
	}
	if err := tm.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if err := tm.Checkpoint(ctx); err != nil {
		t.Errorf("checkpoint over a memory-only node = %v, want nil", err)
	}
	want := tm.InstanceStats().Count
	if want != base+1 {
		t.Fatalf("%d instances after one live fragment, want %d", want, base+1)
	}
	if err := tm.Close(); err != nil {
		t.Fatal(err)
	}

	for reopen := 1; reopen <= 2; reopen++ {
		tm, err := Open(ctx, opts...)
		if err != nil {
			t.Fatalf("reopen %d: %v", reopen, err)
		}
		if got := tm.InstanceStats().Count; got != want {
			t.Errorf("reopen %d: %d instances, want %d (live fragment re-applied?)", reopen, got, want)
		}
		if ok, err := tm.ShowInFused(ctx, show); err != nil || !ok {
			t.Errorf("reopen %d: ShowInFused(%q) = %v, %v; want the live record", reopen, show, ok, err)
		}
		if err := tm.Close(); err != nil {
			t.Fatalf("close after reopen %d: %v", reopen, err)
		}
	}
}
