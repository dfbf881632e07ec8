package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/dterr"
	"repro/internal/store"
)

// seedDurableNode drives a mixed write workload through the wire protocol:
// inserts, an update, a delete, and index creates on the entity shard,
// plus inserts on the instance shard so both namespaces carry state.
func seedDurableNode(t *testing.T, node *Node) {
	t.Helper()
	ctx := context.Background()
	ent := NewRemoteShard(NSEntities, 0, Loopback{Node: node}, nil)
	inst := NewRemoteShard(NSInstances, 0, Loopback{Node: node}, nil)
	ids := make([]int64, 0, 5)
	for i := 0; i < 5; i++ {
		id, err := ent.Insert(ctx, store.NewDoc().
			Set("name", store.Str(fmt.Sprintf("e%d", i))).
			Set("n", store.Num(int64(i))))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id...)
	}
	if ok, err := ent.Update(ctx, ids[1], store.NewDoc().Set("name", store.Str("e1")).Set("n", store.Num(100))); err != nil || !ok {
		t.Fatalf("update: %v %v", ok, err)
	}
	if ok, err := ent.Delete(ctx, ids[4]); err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	if err := ent.CreateIndex(ctx, "by_name", "name", store.BTreeIndex); err != nil {
		t.Fatal(err)
	}
	if err := ent.CreateTextIndex(ctx, "name"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := inst.Insert(ctx, store.NewDoc().
			Set("source_url", store.Str(fmt.Sprintf("http://s/%d", i)))); err != nil {
			t.Fatal(err)
		}
	}
}

// assertDurableState checks the recovered node serves the workload
// seedDurableNode wrote: counts, generations, index sets, and the mutated
// document contents.
func assertDurableState(t *testing.T, node *Node) {
	t.Helper()
	ctx := context.Background()
	ent := NewRemoteShard(NSEntities, 0, Loopback{Node: node}, nil)
	inst := NewRemoteShard(NSInstances, 0, Loopback{Node: node}, nil)
	if n, err := countAll(ctx, ent); err != nil || n != 4 {
		t.Fatalf("entity count = %d, %v; want 4", n, err)
	}
	if n, err := countAll(ctx, inst); err != nil || n != 3 {
		t.Fatalf("instance count = %d, %v; want 3", n, err)
	}
	// 5 inserts + update + delete + 2 index creates = generation 9.
	eh := node.shard(ShardKey(NSEntities, 0))
	ec, gen := eh.view()
	if gen != 9 {
		t.Fatalf("entity generation = %d, want 9", gen)
	}
	if n, text := indexes(ec, "name"); n != 1 || !text {
		t.Fatalf("recovered %d indexes and text index %v; want 1 and one on name", n, text)
	}
	docs, err := findAll(ctx, ent, store.EqStr("name", "e1"))
	if err != nil || len(docs) != 1 {
		t.Fatalf("find e1: %d docs, %v", len(docs), err)
	}
	if v, _ := docs[0].Path("n"); true {
		if n, _ := v.Scalar().AsInt(); n != 100 {
			t.Fatalf("e1 n = %d, want 100 (update lost)", n)
		}
	}
	if docs, err := findAll(ctx, ent, store.EqStr("name", "e4")); err != nil || len(docs) != 0 {
		t.Fatalf("deleted e4 came back: %d docs, %v", len(docs), err)
	}
}

// TestDurableCheckpointRecovery is the clean-shutdown round trip: seed a
// durable node, checkpoint, close, and recover the directory into a fresh
// node — state, generation, and index sets must all survive.
func TestDurableCheckpointRecovery(t *testing.T) {
	dir := t.TempDir()
	node := NewNode("d1")
	hostAll(node, 1)
	if err := node.EnableDurability(dir); err != nil {
		t.Fatal(err)
	}
	seedDurableNode(t, node)
	if err := node.Checkpoint(); err != nil {
		t.Fatalf("shutdown checkpoint: %v", err)
	}
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}

	revived := NewNode("d2")
	hostAll(revived, 1)
	if err := revived.EnableDurability(dir); err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer revived.Close()
	assertDurableState(t, revived)
}

// TestDurableWALRecovery is the kill path: the node is abandoned without
// a shutdown checkpoint (and without even closing its WAL handle, like a
// SIGKILL), so recovery must come from the startup checkpoint plus the
// per-append-flushed WAL tail.
func TestDurableWALRecovery(t *testing.T) {
	dir := t.TempDir()
	node := NewNode("k1")
	hostAll(node, 1)
	if err := node.EnableDurability(dir); err != nil {
		t.Fatal(err)
	}
	seedDurableNode(t, node)
	// No Checkpoint, no Close: the process "died".

	revived := NewNode("k2")
	hostAll(revived, 1)
	if err := revived.EnableDurability(dir); err != nil {
		t.Fatalf("recovery from WAL: %v", err)
	}
	defer revived.Close()
	assertDurableState(t, revived)

	// Recovery re-checkpointed: a committed checkpoint now carries the
	// recovered generation and further writes continue the same counter.
	if !store.HasCheckpoint(filepath.Join(dir, shardDirName(ShardKey(NSEntities, 0)))) {
		t.Fatal("no committed checkpoint after recovery")
	}
	ent := NewRemoteShard(NSEntities, 0, Loopback{Node: revived}, nil)
	if _, err := ent.Insert(context.Background(), store.NewDoc().Set("name", store.Str("post"))); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
	if _, gen := revived.shard(ShardKey(NSEntities, 0)).view(); gen != 10 {
		t.Fatalf("generation after post-recovery write = %d, want 10", gen)
	}
}

// TestCreateIndexTwiceIsNoWrite: asking for an index the shard already has
// is not a write. The generation, the replication log and the WAL stay
// where the first request left them, so a coordinator that ensures its
// indexes again pushes no real event out of the retained window.
func TestCreateIndexTwiceIsNoWrite(t *testing.T) {
	node := NewNode("ix")
	hostAll(node, 1)
	if err := node.EnableDurability(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	shard := NewRemoteShard(NSEntities, 0, Loopback{Node: node}, nil)
	h := node.shard(ShardKey(NSEntities, 0))
	ctx := context.Background()
	var after [2][3]uint64 // per round: generation, retained events, next WAL sequence
	for round := range after {
		if err := shard.CreateIndex(ctx, "type_1", "type", store.HashIndex); err != nil {
			t.Fatal(err)
		}
		if err := shard.CreateTextIndex(ctx, "name"); err != nil {
			t.Fatal(err)
		}
		h.mu.Lock()
		after[round] = [3]uint64{h.gen, uint64(len(h.events)), h.dur.NextSeq()}
		h.mu.Unlock()
	}
	if after[0] != [3]uint64{2, 2, 3} || after[1] != after[0] {
		t.Errorf("generation, events, next WAL seq: %v after the first ensure, %v after the second; want [2 2 3] both times", after[0], after[1])
	}
}

// TestCheckpointOp covers the wire-level checkpoint: unavailable on a
// node without a data directory (the coordinator tolerates that), and
// a committed on-disk checkpoint once durability is enabled.
func TestCheckpointOp(t *testing.T) {
	node := NewNode("cp")
	hostAll(node, 1)
	shard := NewRemoteShard(NSEntities, 0, Loopback{Node: node}, nil)
	ctx := context.Background()
	if err := shard.Checkpoint(ctx); !errors.Is(err, dterr.ErrUnavailable) {
		t.Fatalf("checkpoint without -data-dir = %v, want unavailable", err)
	}

	dir := t.TempDir()
	if err := node.EnableDurability(dir); err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if _, err := shard.Insert(ctx, store.NewDoc().Set("name", store.Str("x"))); err != nil {
		t.Fatal(err)
	}
	if err := shard.Checkpoint(ctx); err != nil {
		t.Fatalf("checkpoint with -data-dir: %v", err)
	}
	sdir := filepath.Join(dir, shardDirName(ShardKey(NSEntities, 0)))
	if files, _ := filepath.Glob(filepath.Join(sdir, "*", "*")); len(files) != 1 || filepath.Base(files[0]) != shardSnapName {
		t.Errorf("checkpoint left %v, want one committed %s", files, shardSnapName)
	}
	if rd := node.Readiness().Shards[ShardKey(NSEntities, 0)]; rd.WALLag != 0 || !rd.Durable {
		t.Errorf("readiness after checkpoint = %+v, want durable with no WAL lag", rd)
	}
}

// TestWarmProbe covers the coordinator's cold/warm/mixed decision.
func TestWarmProbe(t *testing.T) {
	const shards = 2
	buildCluster := func(node *Node) *Cluster {
		instB, entB := loopbackBackends(shards, node, nil)
		instances, err := store.NewShardedBackends(NSInstances, "source_url", instB)
		if err != nil {
			t.Fatal(err)
		}
		entities, err := store.NewShardedBackends(NSEntities, "name", entB)
		if err != nil {
			t.Fatal(err)
		}
		return &Cluster{Instances: instances, Entities: entities}
	}
	ctx := context.Background()

	node := NewNode("w")
	hostAll(node, shards)
	cl := buildCluster(node)
	if warm, err := cl.Warm(ctx); err != nil || warm {
		t.Fatalf("fresh cluster: warm=%v err=%v, want cold", warm, err)
	}

	// Bump every shard of both namespaces (index creates mutate the
	// generation without needing router placement) — fully warm.
	for _, ns := range []string{NSInstances, NSEntities} {
		for idx := 0; idx < shards; idx++ {
			rs := NewRemoteShard(ns, idx, Loopback{Node: node}, nil)
			if err := rs.CreateIndex(ctx, "probe", "name", store.HashIndex); err != nil {
				t.Fatal(err)
			}
		}
	}
	if warm, err := cl.Warm(ctx); err != nil || !warm {
		t.Fatalf("seeded cluster: warm=%v err=%v, want warm", warm, err)
	}

	// A mix of warm and cold shards is an operator error, not a guess.
	mixed := NewNode("m")
	hostAll(mixed, shards)
	rs := NewRemoteShard(NSEntities, 0, Loopback{Node: mixed}, nil)
	if _, err := rs.Insert(ctx, store.NewDoc().Set("name", store.Str("only"))); err != nil {
		t.Fatal(err)
	}
	if _, err := buildCluster(mixed).Warm(ctx); err == nil {
		t.Fatal("mixed warm/cold cluster probed without error; want explicit refusal")
	}
}

// TestFollowerResyncPreservesIndexes forces a snapshot resync (the
// retained event window no longer reaches the follower) and checks the
// rebuilt replica is its primary's shard: the same secondary and text
// indexes and the same extent size, because the resync ships the shard's
// image.
func TestFollowerResyncPreservesIndexes(t *testing.T) {
	primary := NewNode("p")
	primary.AddShard(ShardKey(NSEntities, 0), store.NewCollection(NSEntities, 64))
	shard := NewRemoteShard(NSEntities, 0, Loopback{Node: primary}, nil)
	ctx := context.Background()
	if err := shard.CreateIndex(ctx, "by_name", "name", store.BTreeIndex); err != nil {
		t.Fatal(err)
	}
	if err := shard.CreateTextIndex(ctx, "body"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := shard.Insert(ctx, store.NewDoc().
			Set("name", store.Str(fmt.Sprintf("e%d", i))).
			Set("body", store.Str("text "+fmt.Sprint(i)))); err != nil {
			t.Fatal(err)
		}
	}
	h := primary.shard(ShardKey(NSEntities, 0))
	h.mu.Lock()
	h.events = h.events[8:] // trim past the index-create events
	h.mu.Unlock()

	follower := newFollowerNode("f")
	follower.AddShard(ShardKey(NSEntities, 0), store.NewCollection(NSEntities, 0))
	fol := NewFollower(follower, Loopback{Node: primary}, time.Hour)
	if err := fol.PullOnce(); err != nil {
		t.Fatalf("resync pull: %v", err)
	}

	fh := follower.shard(ShardKey(NSEntities, 0))
	fc, gen := fh.view()
	pc, pGen := h.view()
	if gen != pGen {
		t.Fatalf("follower gen %d != primary gen %d", gen, pGen)
	}
	if got, want := fc.Stats(), pc.Stats(); got != want {
		t.Fatalf("follower stats %+v, primary %+v (resync dropped indexes or extents)", got, want)
	}
	if pc.Stats().NumExtents < 2 {
		t.Fatalf("primary spans %d extents; the test needs several", pc.Stats().NumExtents)
	}
	if !bytes.Equal(snapshotOf(t, fc), snapshotOf(t, pc)) {
		t.Fatal("follower image differs from the primary's: documents, extents or index layout")
	}
	if n := fc.Count(); n != 8 {
		t.Fatalf("follower count after resync = %d, want 8", n)
	}
	if got, want := explainFilter(fc, prefixCond("name", "e")), explainFilter(pc, prefixCond("name", "e")); got != want {
		t.Fatalf("follower plans %+v, primary %+v", got, want)
	}
}

// snapshotOf is the shard image of c: its documents, extents and index
// layout.
func snapshotOf(t *testing.T, c *store.Collection) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// indexes is how many hash and B-tree indexes c has, and whether a text
// index serves substring filters on path.
func indexes(c *store.Collection, path string) (int, bool) {
	plan := explainFilter(c, store.Contains(path, "word"))
	return c.Stats().NIndexes, plan.IndexKind == "text"
}

// explainFilter is the plan a collection's Query uses for f.
func explainFilter(c *store.Collection, f store.Filter) store.Explain {
	return c.Query(store.Query{Filter: f, Explain: true}).Plan
}

// trackingListener records accepted connections so a test can kill a node
// the way a process death would: listener and every live connection gone.
type trackingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *trackingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

func (l *trackingListener) killAll() {
	l.Listener.Close()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.Close()
	}
}

// TestStalePoolRetryAfterRestart is the regression test for the pooled-
// connection failure mode: a node restart leaves idle pooled connections
// dead, and before the one-shot retry every such connection surfaced a
// spurious busy error on its next use. Now each call that finds its
// pooled connection dead (no response bytes read) redials once.
func TestStalePoolRetryAfterRestart(t *testing.T) {
	node := NewNode("r1")
	hostAll(node, 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tl := &trackingListener{Listener: ln}
	go node.Serve(tl)
	addr := ln.Addr().String()

	tr := Dial(addr, 2*time.Second)
	defer tr.Close()
	shard := NewRemoteShard(NSEntities, 0, tr, nil)
	ctx := context.Background()
	// Populate the pool: sequential calls reuse one pooled connection.
	for i := 0; i < 3; i++ {
		if _, err := shard.Insert(ctx, store.NewDoc().Set("name", store.Str(fmt.Sprintf("x%d", i)))); err != nil {
			t.Fatalf("seed insert: %v", err)
		}
	}

	// Kill the node: listener and all live connections.
	tl.killAll()

	// Restart on the same address.
	revived := NewNode("r2")
	hostAll(revived, 1)
	var ln2 net.Listener
	for i := 0; ; i++ {
		ln2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if i > 50 {
			t.Fatalf("relisten on %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	defer ln2.Close()
	go revived.Serve(ln2)

	// Every call through the stale pool must succeed — the retry absorbs
	// the dead connection instead of surfacing busy.
	for i := 0; i < 5; i++ {
		if n, err := countAll(ctx, shard); err != nil || n != 0 {
			t.Fatalf("call %d after restart: count=%d err=%v (stale pooled conn leaked through)", i, n, err)
		}
	}
}
