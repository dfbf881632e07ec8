package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/dterr"
	"repro/internal/core"
	"repro/internal/record"
	"repro/internal/serve"
	"repro/internal/store"
)

// loopbackBackends builds RemoteShard backends for both namespaces over a
// single in-process node (optionally mirrored by a follower), exercising
// the full wire codec on every call.
// newFollowerNode creates an empty read-only node, as BuildNode does for a
// follower: replication apply is the only mutation path.
func newFollowerNode(name string) *Node {
	n := NewNode(name)
	n.readOnly = true
	return n
}

func loopbackBackends(shards int, primary, follower *Node) (inst, ent []store.ShardBackend) {
	pt := Loopback{Node: primary}
	var ft Transport
	if follower != nil {
		ft = Loopback{Node: follower}
	}
	for idx := 0; idx < shards; idx++ {
		inst = append(inst, NewRemoteShard(NSInstances, idx, pt, ft))
		ent = append(ent, NewRemoteShard(NSEntities, idx, pt, ft))
	}
	return inst, ent
}

// hostAll adds one collection per (namespace, shard) to node.
func hostAll(node *Node, shards int) {
	for idx := 0; idx < shards; idx++ {
		node.AddShard(ShardKey(NSInstances, idx), store.NewCollection(NSInstances, 0))
		node.AddShard(ShardKey(NSEntities, idx), store.NewCollection(NSEntities, 0))
	}
}

// newClusterTamer runs the full batch pipeline with every store operation
// routed through the wire protocol to an in-process node.
func newClusterTamer(t *testing.T, cfg core.Config) *core.Tamer {
	t.Helper()
	node := NewNode("loop")
	hostAll(node, cfg.Shards)
	instB, entB := loopbackBackends(cfg.Shards, node, nil)
	instances, err := store.NewShardedBackends(NSInstances, "source_url", instB)
	if err != nil {
		t.Fatal(err)
	}
	entities, err := store.NewShardedBackends(NSEntities, "name", entB)
	if err != nil {
		t.Fatal(err)
	}
	tm := core.New(cfg)
	tm.SetStores(instances, entities)
	if err := tm.Run(context.Background()); err != nil {
		t.Fatalf("cluster-mode run: %v", err)
	}
	return tm
}

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	body, err := io.ReadAll(rec.Result().Body)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Code, string(body)
}

// TestLoopbackEquivalence is the acceptance check for the coordinator
// path: every /v1 read (including pagination windows) must be
// byte-identical between a single-process pipeline and the same pipeline
// with all shard traffic routed through the wire protocol.
func TestLoopbackEquivalence(t *testing.T) {
	cfg := core.Config{Fragments: 300, FTSources: 5, Shards: 4, Seed: 6}
	local := core.New(cfg)
	if err := local.Run(context.Background()); err != nil {
		t.Fatalf("local run: %v", err)
	}
	remote := newClusterTamer(t, cfg)

	localSrv := serve.New(local)
	remoteSrv := serve.New(remote)
	paths := []string{
		"/v1/stats",
		"/v1/types",
		"/v1/types?limit=3&offset=2",
		"/v1/top",
		"/v1/top?limit=4&offset=1",
		"/v1/top?limit=0",
		"/v1/cheapest",
		"/v1/cheapest?limit=2&offset=3",
		"/v1/find?q=type%20%3D%20Movie",
		"/v1/find?q=type%20%3D%20Movie&limit=2&offset=1",
		"/v1/find?q=award%20exists&limit=5",
		"/v1/show?name=Matilda",
		"/v1/show?name=Zz+Totally+Unknown+Zz",
	}
	for _, path := range paths {
		lc, lb := get(t, localSrv, path)
		rc, rb := get(t, remoteSrv, path)
		if lc != rc {
			t.Errorf("%s: status %d (local) != %d (cluster)", path, lc, rc)
			continue
		}
		if lb != rb {
			t.Errorf("%s: body differs\nlocal:   %s\ncluster: %s", path, lb, rb)
		}
	}
}

// TestLoopbackConcurrentReads hammers the coordinator path from many
// goroutines while writes continue — the -race check over transport,
// node dispatch, and replication bookkeeping.
func TestLoopbackConcurrentReads(t *testing.T) {
	const shards = 4
	primary := NewNode("p")
	hostAll(primary, shards)
	follower := newFollowerNode("f")
	hostAll(follower, shards)
	fol := NewFollower(follower, Loopback{Node: primary}, time.Millisecond)
	fol.Start()
	defer fol.Stop()

	_, entB := loopbackBackends(shards, primary, follower)
	entities, err := store.NewShardedBackends(NSEntities, "name", entB)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				d := store.NewDoc().
					Set("name", store.Str(fmt.Sprintf("ent-%d-%d", w, i))).
					Set("type", store.Str("Movie"))
				if _, _, err := entities.InsertCtx(ctx, d); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if _, err := entities.QueryCtx(ctx, store.Query{Filter: store.EqStr("type", "Movie")}); err != nil {
					t.Errorf("countwhere: %v", err)
					return
				}
				if _, err := entities.FindCtx(ctx, prefixCond("name", fmt.Sprintf("ent-%d-", w))); err != nil {
					t.Errorf("find: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st, err := entities.StatsCtx(ctx); err != nil || st.Count != 200 {
		t.Fatalf("final count = %d, %v; want 200", st.Count, err)
	}
}

// TestFollowerReplication drives the primary through the wire and checks
// the follower converges to the same contents via the event feed.
func TestFollowerReplication(t *testing.T) {
	primary := NewNode("p")
	hostAll(primary, 1)
	follower := newFollowerNode("f")
	hostAll(follower, 1)
	fol := NewFollower(follower, Loopback{Node: primary}, time.Hour) // manual pulls only
	shard := NewRemoteShard(NSEntities, 0, Loopback{Node: primary}, nil)
	ctx := context.Background()

	// One frame carries both documents; the follower still sees two events.
	ids, err := shard.Insert(ctx,
		store.NewDoc().Set("name", store.Str("a")).Set("n", store.Num(1)),
		store.NewDoc().Set("name", store.Str("b")).Set("n", store.Num(2)))
	if err != nil || len(ids) != 2 {
		t.Fatalf("insert: ids %v, %v", ids, err)
	}
	id1, id2 := ids[0], ids[1]
	if err := fol.PullOnce(); err != nil {
		t.Fatalf("pull: %v", err)
	}
	// Mutate further: update one, delete one, insert one.
	if ok, err := shard.Update(ctx, id1, store.NewDoc().Set("name", store.Str("a")).Set("n", store.Num(10))); err != nil || !ok {
		t.Fatalf("update: %v %v", ok, err)
	}
	if ok, err := shard.Delete(ctx, id2); err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	if _, err := shard.Insert(ctx, store.NewDoc().Set("name", store.Str("c")).Set("n", store.Num(3))); err != nil {
		t.Fatal(err)
	}
	if err := fol.PullOnce(); err != nil {
		t.Fatalf("incremental pull: %v", err)
	}

	// The follower must now answer reads identically to the primary.
	fShard := NewRemoteShard(NSEntities, 0, Loopback{Node: follower}, nil)
	for name, want := range map[string]int64{"a": 10, "b": -1, "c": 3} {
		docs, err := findAll(ctx, fShard, store.EqStr("name", name))
		if err != nil {
			t.Fatalf("find %s: %v", name, err)
		}
		if want < 0 {
			if len(docs) != 0 {
				t.Errorf("deleted %q still on follower", name)
			}
			continue
		}
		if len(docs) != 1 {
			t.Fatalf("find %s: %d docs", name, len(docs))
		}
		if v, _ := docs[0].Path("n"); true {
			if n, _ := v.Scalar().AsInt(); n != want {
				t.Errorf("%s: n = %d, want %d", name, n, want)
			}
		}
	}
	if n, err := countAll(ctx, fShard); err != nil || n != 2 {
		t.Fatalf("follower count = %d, %v; want 2", n, err)
	}
}

// TestFollowerIndexReplication checks that index creation travels the
// replication feed: a follower must serve indexed lookups through the
// same access path as its primary, so result order stays identical.
func TestFollowerIndexReplication(t *testing.T) {
	primary := NewNode("p")
	hostAll(primary, 1)
	follower := newFollowerNode("f")
	hostAll(follower, 1)
	fol := NewFollower(follower, Loopback{Node: primary}, time.Hour) // manual pulls only
	shard := NewRemoteShard(NSEntities, 0, Loopback{Node: primary}, nil)
	ctx := context.Background()

	// Insert in reverse-alphabetical order so index order (sorted keys for
	// a btree, bucket order for a hash) is observably different from
	// insertion order.
	for _, name := range []string{"zeta", "mid", "alpha"} {
		if _, err := shard.Insert(ctx, store.NewDoc().Set("name", store.Str(name)).Set("body", store.Str("text about "+name))); err != nil {
			t.Fatal(err)
		}
	}
	if err := shard.CreateIndex(ctx, "by_name", "name", store.BTreeIndex); err != nil {
		t.Fatalf("create index: %v", err)
	}
	if err := shard.CreateTextIndex(ctx, "body"); err != nil {
		t.Fatalf("create text index: %v", err)
	}
	if err := fol.PullOnce(); err != nil {
		t.Fatalf("pull: %v", err)
	}

	fh := follower.shard(ShardKey(NSEntities, 0))
	fc, fGen := fh.view()
	if n, text := indexes(fc, "body"); n != 1 || !text {
		t.Fatalf("follower has %d indexes and text index %v; want 1 and one on body", n, text)
	}
	ph := primary.shard(ShardKey(NSEntities, 0))
	if _, pGen := ph.view(); fGen != pGen {
		t.Fatalf("follower gen %d != primary gen %d", fGen, pGen)
	}

	// An In filter is served from the index; both sides must return the
	// same docs in the same order.
	fShard := NewRemoteShard(NSEntities, 0, Loopback{Node: follower}, nil)
	filter := inCond("name", record.String("zeta"), record.String("alpha"), record.String("mid"))
	pd, err := findAll(ctx, shard, filter)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := findAll(ctx, fShard, filter)
	if err != nil {
		t.Fatal(err)
	}
	if len(pd) != 3 || len(fd) != 3 {
		t.Fatalf("got %d primary docs, %d follower docs; want 3 each", len(pd), len(fd))
	}
	for i := range pd {
		if pn, fn := pd[i].PathString("name"), fd[i].PathString("name"); pn != fn {
			t.Errorf("doc %d: primary %q != follower %q (index order diverged)", i, pn, fn)
		}
	}
}

// TestFollowerSnapshotResync forces the retained event window to trim and
// checks the follower falls back to a full snapshot transfer.
func TestFollowerSnapshotResync(t *testing.T) {
	primary := NewNode("p")
	primary.AddShard(ShardKey(NSEntities, 0), store.NewCollection(NSEntities, 0))
	h := primary.shard(ShardKey(NSEntities, 0))
	// Seed past the retention window directly, then trim as the node would.
	shard := NewRemoteShard(NSEntities, 0, Loopback{Node: primary}, nil)
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if _, err := shard.Insert(ctx, store.NewDoc().Set("name", store.Str(fmt.Sprintf("e%d", i)))); err != nil {
			t.Fatal(err)
		}
	}
	h.mu.Lock()
	h.events = h.events[8:] // pretend events 1..8 were trimmed
	h.mu.Unlock()

	follower := newFollowerNode("f")
	follower.AddShard(ShardKey(NSEntities, 0), store.NewCollection(NSEntities, 0))
	fol := NewFollower(follower, Loopback{Node: primary}, time.Hour)
	if err := fol.PullOnce(); err != nil {
		t.Fatalf("resync pull: %v", err)
	}
	fShard := NewRemoteShard(NSEntities, 0, Loopback{Node: follower}, nil)
	if n, err := countAll(ctx, fShard); err != nil || n != 10 {
		t.Fatalf("follower count after resync = %d, %v; want 10", n, err)
	}
	fh := follower.shard(ShardKey(NSEntities, 0))
	if _, gen := fh.view(); gen != 10 {
		t.Fatalf("follower generation = %d, want 10", gen)
	}
}

// TestReadYourWrites checks the generation fence: a client that just
// wrote reads its write even when the follower lags, because the lagging
// replica answers busy and the read falls back to the primary.
func TestReadYourWrites(t *testing.T) {
	primary := NewNode("p")
	hostAll(primary, 1)
	follower := newFollowerNode("f")
	hostAll(follower, 1) // never pulled: permanently at generation 0
	shard := NewRemoteShard(NSEntities, 0, Loopback{Node: primary}, Loopback{Node: follower})
	ctx := context.Background()
	if _, err := shard.Insert(ctx, store.NewDoc().Set("name", store.Str("fresh"))); err != nil {
		t.Fatal(err)
	}
	docs, err := findAll(ctx, shard, store.EqStr("name", "fresh"))
	if err != nil {
		t.Fatalf("find after write: %v", err)
	}
	if len(docs) != 1 {
		t.Fatalf("stale read: %d docs, want 1 (fence must route to primary)", len(docs))
	}
	// The lagging replica itself must answer Busy when fenced.
	resp := follower.Handle(&Request{Op: OpQuery, Shard: ShardKey(NSEntities, 0), MinGen: 1, Body: mustQuery(t, store.Query{Limit: store.NoLimit})})
	if resp.Err == nil || !errors.Is(resp.Err, dterr.ErrBusy) {
		t.Fatalf("fenced read on lagging replica = %v, want busy", resp.Err)
	}
}

// findAll is the unbounded query against one shard backend.
func findAll(ctx context.Context, b store.ShardBackend, f store.Filter) ([]*store.Doc, error) {
	res, err := b.Query(ctx, store.Query{Filter: f, Limit: store.NoLimit})
	return res.Docs, err
}

// countAll is the count-only query against one shard backend.
func countAll(ctx context.Context, b store.ShardBackend) (int64, error) {
	res, err := b.Query(ctx, store.Query{})
	return res.Total, err
}

func mustQuery(t *testing.T, q store.Query) []byte {
	t.Helper()
	b, err := EncodeQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFollowerWriteRejected checks a read-only replica refuses writes.
func TestFollowerWriteRejected(t *testing.T) {
	follower := newFollowerNode("f")
	hostAll(follower, 1)
	shard := NewRemoteShard(NSEntities, 0, Loopback{Node: follower}, nil)
	_, err := shard.Insert(context.Background(), store.NewDoc().Set("name", store.Str("x")))
	if !errors.Is(err, dterr.ErrUnavailable) {
		t.Fatalf("write to follower = %v, want unavailable", err)
	}
}

// TestUnknownShard checks the node's typed not-found for unhosted shards.
func TestUnknownShard(t *testing.T) {
	node := NewNode("n")
	shard := NewRemoteShard(NSEntities, 7, Loopback{Node: node}, nil)
	_, err := countAll(context.Background(), shard)
	if !errors.Is(err, dterr.ErrNotFound) {
		t.Fatalf("unhosted shard read = %v, want not found", err)
	}
}

// TestTCPTransport runs a node on a real socket and exercises the wire
// end to end, including error mapping for unreachable and closed
// transports.
func TestTCPTransport(t *testing.T) {
	node := NewNode("tcp")
	hostAll(node, 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go node.Serve(ln)

	tr := Dial(ln.Addr().String(), 2*time.Second)
	shard := NewRemoteShard(NSEntities, 0, tr, nil)
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		if _, err := shard.Insert(ctx, store.NewDoc().
			Set("name", store.Str(fmt.Sprintf("sock-%d", i))).
			Set("type", store.Str("Movie"))); err != nil {
			t.Fatalf("insert over tcp: %v", err)
		}
	}
	if n, err := countAll(ctx, shard); err != nil || n != 20 {
		t.Fatalf("count over tcp = %d, %v", n, err)
	}
	docs, err := findAll(ctx, shard, store.Contains("name", "sock-1"))
	if err != nil {
		t.Fatalf("find over tcp: %v", err)
	}
	if len(docs) != 11 { // sock-1, sock-10..sock-19
		t.Fatalf("find over tcp: %d docs, want 11", len(docs))
	}
	if resp, err := shard.primary.Call(ctx, &Request{Op: OpPing, Shard: shard.key}); err != nil || resp.Err != nil {
		t.Fatalf("ping: %v, %v", err, resp)
	}

	// Cancelled context surfaces as the context's typed error.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := countAll(cctx, shard); !errors.Is(err, dterr.ErrCanceled) {
		t.Fatalf("cancelled call = %v, want canceled", err)
	}

	// A closed transport refuses further calls.
	tr.Close()
	if _, err := countAll(ctx, shard); !errors.Is(err, dterr.ErrClosed) {
		t.Fatalf("closed transport call = %v, want closed", err)
	}

	// An unreachable node maps to busy — the degraded-read signal.
	dead := Dial("127.0.0.1:1", 200*time.Millisecond)
	defer dead.Close()
	deadShard := NewRemoteShard(NSEntities, 0, dead, nil)
	if _, err := countAll(ctx, deadShard); !errors.Is(err, dterr.ErrBusy) {
		t.Fatalf("unreachable node call = %v, want busy", err)
	}
}

// TestFollowerDownFallsBack kills the follower transport and checks reads
// degrade to the primary instead of failing.
func TestFollowerDownFallsBack(t *testing.T) {
	primary := NewNode("p")
	hostAll(primary, 1)
	dead := Dial("127.0.0.1:1", 200*time.Millisecond)
	defer dead.Close()
	shard := NewRemoteShard(NSEntities, 0, Loopback{Node: primary}, dead)
	ctx := context.Background()
	if _, err := shard.Insert(ctx, store.NewDoc().Set("name", store.Str("x"))); err != nil {
		t.Fatal(err)
	}
	if n, err := countAll(ctx, shard); err != nil || n != 1 {
		t.Fatalf("read with dead follower = %d, %v; want primary fallback", n, err)
	}
}

// TestConfigValidation covers the membership invariants.
func TestConfigValidation(t *testing.T) {
	good := `{"shards": 2, "nodes": [
		{"name": "a", "addr": "127.0.0.1:7101", "shards": [0]},
		{"name": "b", "addr": "127.0.0.1:7102", "follower": "127.0.0.1:7202", "shards": [1]}
	]}`
	cfg, err := ParseConfig([]byte(good))
	if err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if cfg.Owner(1).Name != "b" || cfg.Owner(0).Name != "a" {
		t.Fatal("owner lookup wrong")
	}
	bad := map[string]string{
		"no nodes":     `{"shards": 1, "nodes": []}`,
		"orphan shard": `{"shards": 2, "nodes": [{"name": "a", "addr": "x", "shards": [0]}]}`,
		"double owner": `{"shards": 1, "nodes": [{"name": "a", "addr": "x", "shards": [0]}, {"name": "b", "addr": "y", "shards": [0]}]}`,
		"range":        `{"shards": 1, "nodes": [{"name": "a", "addr": "x", "shards": [1]}]}`,
		"dup name":     `{"shards": 2, "nodes": [{"name": "a", "addr": "x", "shards": [0]}, {"name": "a", "addr": "y", "shards": [1]}]}`,
		"no addr":      `{"shards": 1, "nodes": [{"name": "a", "shards": [0]}]}`,
		// cluster.json is membership only: any other key — ring routing,
		// resilience tuning, a misspelt field — is refused, not ignored.
		"vnodes":     `{"shards": 1, "vnodes": 16, "nodes": [{"name": "a", "addr": "x", "shards": [0]}]}`,
		"resilience": `{"shards": 1, "resilience": {"disable": true}, "nodes": [{"name": "a", "addr": "x", "shards": [0]}]}`,
		"node typo":  `{"shards": 1, "nodes": [{"name": "a", "adr": "x", "addr": "x", "shards": [0]}]}`,
	}
	for name, raw := range bad {
		if _, err := ParseConfig([]byte(raw)); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
}

// TestHealthHandler checks the node liveness endpoint shape.
func TestHealthHandler(t *testing.T) {
	node := NewNode("hz")
	hostAll(node, 1)
	shard := NewRemoteShard(NSEntities, 0, Loopback{Node: node}, nil)
	if _, err := shard.Insert(context.Background(), store.NewDoc().Set("name", store.Str("x"))); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	node.HealthHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{`"status":"ok"`, `"node":"hz"`, ShardKey(NSEntities, 0)} {
		if !strings.Contains(body, want) {
			t.Errorf("healthz body missing %q: %s", want, body)
		}
	}
}
