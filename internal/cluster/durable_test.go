package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/dterr"
	"repro/internal/store"
)

// seedDurableNode drives a mixed write workload through the wire protocol:
// inserts, index creates, then inserts the new indexes file on the entity
// shard, plus inserts on the instance shard so both namespaces carry state.
func seedDurableNode(t *testing.T, node *Node) {
	t.Helper()
	ctx := context.Background()
	ent := NewRemoteShard(NSEntities, 0, Loopback{Node: node}, nil)
	inst := NewRemoteShard(NSInstances, 0, Loopback{Node: node}, nil)
	insert := func(i int) {
		if _, err := ent.Insert(ctx, store.NewDoc(
			store.F("name", store.Str(fmt.Sprintf("e%d", i))),
			store.F("n", store.Num(int64(i))))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		insert(i)
	}
	for _, ix := range []store.IndexSpec{{Name: "by_name", Path: "name", Kind: store.BTreeIndex}, {Path: "name", Kind: store.TextIndex}} {
		if err := ent.CreateIndex(ctx, ix); err != nil {
			t.Fatal(err)
		}
	}
	for i := 5; i < 7; i++ {
		insert(i)
	}
	for i := 0; i < 3; i++ {
		if _, err := inst.Insert(ctx, store.NewDoc(
			store.F("source_url", store.Str(fmt.Sprintf("http://s/%d", i))))); err != nil {
			t.Fatal(err)
		}
	}
}

// assertDurableState checks the recovered node serves the workload
// seedDurableNode wrote: counts, generations, index sets, and document
// contents found through the recovered index.
func assertDurableState(t *testing.T, node *Node) {
	t.Helper()
	ctx := context.Background()
	ent := NewRemoteShard(NSEntities, 0, Loopback{Node: node}, nil)
	inst := NewRemoteShard(NSInstances, 0, Loopback{Node: node}, nil)
	if n, err := countAll(ctx, ent); err != nil || n != 7 {
		t.Fatalf("entity count = %d, %v; want 7", n, err)
	}
	if n, err := countAll(ctx, inst); err != nil || n != 3 {
		t.Fatalf("instance count = %d, %v; want 3", n, err)
	}
	// 7 inserts + 2 index creates = generation 9.
	eh := node.shard(ShardKey(NSEntities, 0))
	ec, gen := eh.view()
	if gen != 9 {
		t.Fatalf("entity generation = %d, want 9", gen)
	}
	if n, text := indexes(ec, "name"); n != 1 || !text {
		t.Fatalf("recovered %d indexes and text index %v; want 1 and one on name", n, text)
	}
	for _, i := range []int64{1, 6} {
		name := fmt.Sprintf("e%d", i)
		docs, err := findAll(ctx, ent, store.EqStr("name", name))
		if err != nil || len(docs) != 1 {
			t.Fatalf("find %s: %d docs, %v", name, len(docs), err)
		}
		if v, _ := docs[0].Path("n"); true {
			if n, _ := v.Scalar().AsInt(); n != i {
				t.Fatalf("%s n = %d, want %d", name, n, i)
			}
		}
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
	if _, err := ent.Insert(context.Background(), store.NewDoc(store.F("name", store.Str("post")))); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
	if _, gen := revived.shard(ShardKey(NSEntities, 0)).view(); gen != 10 {
		t.Fatalf("generation after post-recovery write = %d, want 10", gen)
	}
}

// TestApplyEventRefusesReplayBelowHighest: WAL recovery and replication
// stop at an insert event for an id not above every id held, a held one
// included, rather than apply it out of order or over a stored document;
// in-order events, a jump over an id among them, still apply.
func TestApplyEventRefusesReplayBelowHighest(t *testing.T) {
	c := store.NewCollection(NSEntities, 0)
	d := store.NewDoc(store.F("name", store.Str("e")))
	for _, id := range []int64{1, 3} {
		if err := applyEvent(c, EvInsert, store.EncodeIDDoc(id, d)); err != nil {
			t.Fatalf("insert event on id %d: %v", id, err)
		}
	}
	for _, id := range []int64{2, 1, 3, 0} {
		if err := applyEvent(c, EvInsert, store.EncodeIDDoc(id, d)); err == nil {
			t.Errorf("an insert event for id %d, not above the highest id held, was applied", id)
		}
	}
	if n := c.Count(); n != 2 {
		t.Errorf("the collection holds %d documents, want 2", n)
	}
}

// TestApplyEventRefusesIDOnlyInsert: an insert event whose payload is the
// 8-byte id alone — what a delete carried — holds no document, and is an
// error, not a document-less insert.
func TestApplyEventRefusesIDOnlyInsert(t *testing.T) {
	c := store.NewCollection(NSEntities, 0)
	for _, payload := range [][]byte{binary.LittleEndian.AppendUint64(nil, 1), {1, 0, 0}, nil} {
		if err := applyEvent(c, EvInsert, payload); err == nil {
			t.Errorf("an insert event of %d payload bytes was applied", len(payload))
		}
	}
	if n := c.Count(); n != 0 {
		t.Errorf("the collection holds %d documents, want none", n)
	}
}

// TestRetiredEventKindsFailRecovery: a shard WAL holding an update (kind 2)
// or a delete (kind 3), which an older build wrote, fails the node's
// recovery with an error that names the kind.
func TestRetiredEventKindsFailRecovery(t *testing.T) {
	for kind, name := range map[byte]string{2: "update", 3: "delete"} {
		root := t.TempDir()
		key := ShardKey(NSEntities, 0)
		lg, _, err := openShardLog(root, key, store.NewCollection(NSEntities, 0))
		if err != nil {
			t.Fatal(err)
		}
		d := store.NewDoc(store.F("name", store.Str("e")))
		for _, ev := range []struct {
			kind    byte
			payload []byte
		}{{EvInsert, store.EncodeIDDoc(1, d)}, {kind, store.EncodeIDDoc(1, d)}} {
			if _, err := lg.Append(ev.kind, ev.payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := lg.Close(); err != nil {
			t.Fatal(err)
		}
		_, _, err = openShardLog(root, key, store.NewCollection(NSEntities, 0))
		if want := fmt.Sprintf("kind %d (%s)", kind, name); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("recovering a WAL holding kind %d: %v, want an error naming %q", kind, err, want)
		}
	}
}

// TestOldTextIndexEventRecovers: a shard WAL in which an older build logged
// a text index's creation as kind 5, its path alone, recovers the index,
// and a Contains over its path is served by it.
func TestOldTextIndexEventRecovers(t *testing.T) {
	root := t.TempDir()
	key := ShardKey(NSEntities, 0)
	lg, _, err := openShardLog(root, key, store.NewCollection(NSEntities, 0))
	if err != nil {
		t.Fatal(err)
	}
	var path bytes.Buffer
	store.PutString(&path, "name")
	d := store.NewDoc(store.F("name", store.Str("The Walking Dead")))
	for _, ev := range []struct {
		kind    byte
		payload []byte
	}{{EvInsert, store.EncodeIDDoc(1, d)}, {5, path.Bytes()}} {
		if _, err := lg.Append(ev.kind, ev.payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	lg, coll, err := openShardLog(root, key, store.NewCollection(NSEntities, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	if missing := coll.MissingIndexes([]store.IndexSpec{{Path: "name", Kind: store.TextIndex}}); len(missing) != 0 {
		t.Fatalf("the recovered shard lacks %+v", missing)
	}
	q := store.Query{Filter: store.Contains("name", "WALKING"), Limit: store.NoLimit}
	if res := coll.Query(q); res.Total != 1 {
		t.Errorf("Contains found %d documents, want 1", res.Total)
	}
	q.Explain = true
	if plan := coll.Query(q).Plan; plan.IndexKind != "text" {
		t.Errorf("Contains planned as %+v, want the text index", plan)
	}
}

// TestCreateIndexRefusesTrailingBytes: an OpCreateIndex body holding bytes
// after its spec is refused as invalid_argument, and a durable node then
// has taken no generation, built no index and logged no event: a node
// recovered from its directory has none either.
func TestCreateIndexRefusesTrailingBytes(t *testing.T) {
	dir := t.TempDir()
	key := ShardKey(NSEntities, 0)
	node := NewNode("n")
	hostAll(node, 1)
	if err := node.EnableDurability(dir); err != nil {
		t.Fatal(err)
	}
	spec := store.IndexSpec{Name: "type_1", Path: "type", Kind: store.HashIndex}
	var body bytes.Buffer
	store.PutIndexSpec(&body, spec)
	body.Write([]byte{0xde, 0xad})
	resp := loopbackCall(t, node, &Request{Op: OpCreateIndex, Shard: key, Body: body.Bytes()})
	if resp.Err == nil || !errors.Is(resp.Err, dterr.ErrInvalidArgument) {
		t.Fatalf("create with trailing bytes: %v, want invalid_argument", resp.Err)
	}
	if coll, gen := node.shard(key).view(); gen != 0 || len(coll.MissingIndexes([]store.IndexSpec{spec})) != 1 {
		t.Fatalf("after the refused create: generation %d, missing %v", gen, coll.MissingIndexes([]store.IndexSpec{spec}))
	}
	// No Close: what the WAL holds is what a crash would leave.
	revived := NewNode("r")
	hostAll(revived, 1)
	if err := revived.EnableDurability(dir); err != nil {
		t.Fatal(err)
	}
	defer revived.Close()
	if coll, gen := revived.shard(key).view(); gen != 0 || len(coll.MissingIndexes([]store.IndexSpec{spec})) != 1 {
		t.Fatalf("recovered shard at generation %d holds the refused index", gen)
	}
}

// FuzzApplyEvent: no event, whatever its kind and payload, panics the
// applier of WAL recovery; only an insert and an index creation — kind 4,
// or kind 5, a text index's as an older build logged it — ever apply, an
// insert adding one document and an index creation none; and a refused
// event leaves the collection's Count and snapshot bytes as they were. The
// seeds are an event of each kind that applies, one of each retired kind,
// an insert of a held id, an insert of an id alone, an index of a kind that
// is no kind, and a text index's spec under kind 4.
func FuzzApplyEvent(f *testing.F) {
	doc := store.NewDoc(store.F("name", store.Str("Matilda")), store.F("type", store.Str("Movie")))
	var text bytes.Buffer
	store.PutString(&text, "name")
	f.Add(EvInsert, store.EncodeIDDoc(4, doc))
	f.Add(EvCreateIndex, specBody(store.IndexSpec{Name: "type_1", Path: "type", Kind: store.HashIndex}))
	f.Add(byte(5), text.Bytes()) // a text index's creation as an older build logged it
	f.Add(byte(2), store.EncodeIDDoc(1, doc))
	f.Add(byte(3), binary.LittleEndian.AppendUint64(nil, 2))
	f.Add(EvInsert, store.EncodeIDDoc(2, doc))
	f.Add(EvInsert, binary.LittleEndian.AppendUint64(nil, 4))
	f.Add(EvCreateIndex, specBody(store.IndexSpec{Name: "type_1", Path: "type", Kind: 7}))
	f.Add(EvCreateIndex, specBody(store.IndexSpec{Path: "type", Kind: store.TextIndex}))
	f.Fuzz(func(t *testing.T, kind byte, payload []byte) {
		c := store.NewCollection(NSEntities, 256)
		c.EnsureIndex(store.IndexSpec{Name: "name_1", Path: "name", Kind: store.BTreeIndex})
		c.EnsureIndex(store.IndexSpec{Path: "text", Kind: store.TextIndex})
		for i := 0; i < 3; i++ {
			c.Insert(store.NewDoc(store.F("name", store.Str(fmt.Sprintf("Show %d", i))), store.F("text", store.Str("a walk in the park"))))
		}
		image := func() []byte {
			var buf bytes.Buffer
			if err := c.WriteSnapshot(&buf, 0); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		before, count := image(), c.Count()
		err := applyEvent(c, kind, payload)
		switch {
		case err != nil:
			if c.Count() != count || !bytes.Equal(image(), before) {
				t.Fatalf("refused event %d (%v) changed the collection", kind, err)
			}
		case kind == EvInsert:
			if c.Count() != count+1 {
				t.Fatalf("an applied insert left %d documents, want %d", c.Count(), count+1)
			}
		case kind == EvCreateIndex || kind == 5:
			if c.Count() != count {
				t.Fatalf("an applied index creation left %d documents, want %d", c.Count(), count)
			}
		default:
			t.Fatalf("event kind %d applied", kind)
		}
		if _, err := store.ReadSnapshot(bytes.NewReader(image())); err != nil {
			t.Fatalf("after event %d the snapshot does not load: %v", kind, err)
		}
	})
}

// TestCreateIndexTwiceIsNoWrite: asking for an index the shard already has
// is not a write. The generation and the WAL stay where the first request
// left them, so a coordinator that ensures its indexes again adds no
// generation a follower would have to pull.
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
	var after [2][2]uint64 // per round: generation, next WAL sequence
	for round := range after {
		for _, ix := range []store.IndexSpec{{Name: "type_1", Path: "type", Kind: store.HashIndex}, {Path: "name", Kind: store.TextIndex}} {
			if err := shard.CreateIndex(ctx, ix); err != nil {
				t.Fatal(err)
			}
		}
		h.mu.Lock()
		after[round] = [2]uint64{h.gen, h.dur.NextSeq()}
		h.mu.Unlock()
	}
	if after[0] != [2]uint64{2, 3} || after[1] != after[0] {
		t.Errorf("generation, next WAL seq: %v after the first ensure, %v after the second; want [2 3] both times", after[0], after[1])
	}
}

// TestCheckpointOp covers a node's own checkpoint, the one dtnode takes at
// shutdown: unavailable on a node without a data directory, and a
// committed on-disk checkpoint once durability is enabled.
func TestCheckpointOp(t *testing.T) {
	node := NewNode("cp")
	hostAll(node, 1)
	shard := NewRemoteShard(NSEntities, 0, Loopback{Node: node}, nil)
	ctx := context.Background()
	if err := node.Checkpoint(); !errors.Is(err, dterr.ErrUnavailable) {
		t.Fatalf("checkpoint without -data-dir = %v, want unavailable", err)
	}

	dir := t.TempDir()
	if err := node.EnableDurability(dir); err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if _, err := shard.Insert(ctx, store.NewDoc(store.F("name", store.Str("x")))); err != nil {
		t.Fatal(err)
	}
	if err := node.Checkpoint(); err != nil {
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
			if err := rs.CreateIndex(ctx, store.IndexSpec{Name: "probe", Path: "name", Kind: store.HashIndex}); err != nil {
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
	if _, err := rs.Insert(ctx, store.NewDoc(store.F("name", store.Str("only")))); err != nil {
		t.Fatal(err)
	}
	if _, err := buildCluster(mixed).Warm(ctx); err == nil {
		t.Fatal("mixed warm/cold cluster probed without error; want explicit refusal")
	}
}

// TestFollowerResyncPreservesIndexes pulls a primary's shard into a
// follower that holds nothing and checks the replica is its primary's
// shard: the same secondary and text indexes and the same extent size,
// though the follower's collection was built with another, because the
// pull ships the shard's image.
func TestFollowerResyncPreservesIndexes(t *testing.T) {
	primary := NewNode("p")
	primary.AddShard(ShardKey(NSEntities, 0), store.NewCollection(NSEntities, 64))
	shard := NewRemoteShard(NSEntities, 0, Loopback{Node: primary}, nil)
	ctx := context.Background()
	for _, ix := range []store.IndexSpec{{Name: "by_name", Path: "name", Kind: store.BTreeIndex}, {Path: "body", Kind: store.TextIndex}} {
		if err := shard.CreateIndex(ctx, ix); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		if _, err := shard.Insert(ctx, store.NewDoc(
			store.F("name", store.Str(fmt.Sprintf("e%d", i))),
			store.F("body", store.Str("text "+fmt.Sprint(i))))); err != nil {
			t.Fatal(err)
		}
	}
	h := primary.shard(ShardKey(NSEntities, 0))

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
	if err := c.WriteSnapshot(&buf, 0); err != nil {
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
		if _, err := shard.Insert(ctx, store.NewDoc(store.F("name", store.Str(fmt.Sprintf("x%d", i))))); err != nil {
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
