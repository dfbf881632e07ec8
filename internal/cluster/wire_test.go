package cluster

import (
	"context"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/fuse"
	"repro/internal/store"
)

// countingListener counts the bytes its connections write: what the node
// sends back over TCP loopback.
type countingListener struct {
	net.Listener
	sent *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, sent: l.sent}, nil
}

type countingConn struct {
	net.Conn
	sent *atomic.Int64
}

// Write counts p before sending it, so a client holding the bytes also
// sees them counted: counted after the send, a reply could land in the
// next query's measurement.
func (c countingConn) Write(p []byte) (int, error) {
	c.sent.Add(int64(len(p)))
	return c.Conn.Write(p)
}

// TestPagedFindMovesThePageOverTheWire: with 1 200 matches on each of two
// shards, a limit=10 find brings back under a tenth of the bytes the
// unbounded find does — each shard ships at most offset+limit documents and
// its total, in one frame.
func TestPagedFindMovesThePageOverTheWire(t *testing.T) {
	const shards, perShard = 2, 1200
	node := NewNode("wire")
	backends := make([]store.ShardBackend, shards)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var sent atomic.Int64
	served := make(chan error, 1)
	go func() { served <- node.Serve(countingListener{Listener: ln, sent: &sent}) }()
	tr := Dial(ln.Addr().String(), 0)
	defer func() {
		tr.Close()
		ln.Close()
		if err := <-served; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	for i := range backends {
		coll := store.NewCollection(NSEntities, 0)
		coll.EnsureIndex(store.IndexSpec{Name: "type_1", Path: "type", Kind: store.HashIndex})
		for j := 0; j < perShard; j++ {
			coll.Insert(store.NewDoc(
				store.F("type", store.Str("Movie")),
				store.F("name", store.Str(fmt.Sprintf("The Walking Dead, part %d of shard %d", j, i)))))
		}
		node.AddShard(ShardKey(NSEntities, i), coll)
		backends[i] = NewRemoteShard(NSEntities, i, tr, nil)
	}
	entities, err := store.NewShardedBackends(NSEntities, "name", backends)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	reply := func(q store.Query) (store.Result, int64) {
		before := sent.Load()
		res, err := entities.QueryCtx(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		return res, sent.Load() - before
	}
	movies := store.EqStr("type", "Movie")
	whole, wholeBytes := reply(store.Query{Filter: movies, Limit: store.NoLimit})
	page, pageBytes := reply(store.Query{Filter: movies, Offset: 20, Limit: 10})
	if len(whole.Docs) != shards*perShard || page.Total != whole.Total || len(page.Docs) != 10 {
		t.Fatalf("unbounded %d docs, page %d docs of %d", len(whole.Docs), len(page.Docs), page.Total)
	}
	if pageBytes*10 >= wholeBytes {
		t.Errorf("the page's replies were %d B, the unbounded find's %d B: want under a tenth", pageBytes, wholeBytes)
	}
	_, countBytes := reply(store.Query{Filter: movies})
	if countBytes > 64*shards {
		t.Errorf("a count-only query's replies were %d B", countBytes)
	}
}

// countingTransport counts the calls through it and the bytes of their
// encoded requests and responses, and keeps the largest insert request.
type countingTransport struct {
	Transport
	calls, bytes, maxInsert atomic.Int64
}

func (c *countingTransport) Call(ctx context.Context, req *Request) (*Response, error) {
	resp, err := c.Transport.Call(ctx, req)
	c.calls.Add(1)
	n := int64(len(refEncodeRequest(req)))
	c.bytes.Add(n)
	for req.Op == OpInsert {
		if m := c.maxInsert.Load(); n <= m || c.maxInsert.CompareAndSwap(m, n) {
			break
		}
	}
	if resp != nil {
		c.bytes.Add(int64(len(refEncodeResponse(resp))))
	}
	return resp, err
}

// TestInsertFramesFitTheChunk loads documents of about 100 KB each, where a
// frame taking documents until it reached store.FrameChunk would run a
// document over it: every insert frame must fit the node's reused request
// buffer, and hold as many documents as fit.
func TestInsertFramesFitTheChunk(t *testing.T) {
	node := NewNode("frames")
	node.AddShard(ShardKey(NSInstances, 0), store.NewCollection(NSInstances, 0))
	tr := &countingTransport{Transport: Loopback{Node: node}}
	docs := make([]*store.Doc, 10)
	for i := range docs {
		docs[i] = store.NewDoc(
			store.F("source_url", store.Str(fmt.Sprintf("http://feeds.example/%d", i))),
			store.F("text", store.Str(strings.Repeat("Matilda grossed 960,998 this week. ", 3000))))
	}
	perFrame := int(store.FrameChunk / docs[0].SizeBytes())
	ids, err := NewRemoteShard(NSInstances, 0, tr, nil).Insert(context.Background(), docs...)
	if err != nil || len(ids) != len(docs) {
		t.Fatalf("Insert = %d ids (%v), want %d", len(ids), err, len(docs))
	}
	if m := tr.maxInsert.Load(); m > store.FrameChunk {
		t.Errorf("the largest insert frame is %d B, over the %d B chunk", m, store.FrameChunk)
	}
	if want := int64((len(docs) + perFrame - 1) / perFrame); tr.calls.Load() != want {
		t.Errorf("%d documents, %d to a frame, took %d calls, want %d", len(docs), perFrame, tr.calls.Load(), want)
	}
}

// TestWireCarriesBatchesAndFields pins both directions of the wire by count.
// Loading N documents through the router is a call per store.FrameChunk of
// them and shard, not a call per document; and TextFeeds of the best feed,
// which each shard ranks next to its text, moves at most one text per shard
// — not every fragment naming the show, nor the entity lists stored beside
// them.
func TestWireCarriesBatchesAndFields(t *testing.T) {
	const shards, n = 4, 3000
	node := NewNode("wire")
	tr := &countingTransport{Transport: Loopback{Node: node}}
	backends := make([]store.ShardBackend, shards)
	for i := range backends {
		coll := store.NewCollection(NSInstances, 0)
		coll.EnsureIndex(store.IndexSpec{Path: "text", Kind: store.TextIndex})
		node.AddShard(ShardKey(NSInstances, i), coll)
		backends[i] = NewRemoteShard(NSInstances, i, tr, nil)
	}
	instances, err := store.NewShardedBackends(NSInstances, "source_url", backends)
	if err != nil {
		t.Fatal(err)
	}

	// Fragments the shape the parser stores: a text, and a list of entity
	// references several times its size.
	docs := make([]*store.Doc, n)
	var footprint, matches int64
	var matchedLens []int
	for i := range docs {
		text := fmt.Sprintf("Fragment %d: Wicked had a fine week on Broadway. ", i)
		if i%15 == 0 {
			text += strings.Repeat("Matilda grossed 960,998 this week. ", 1+i%4)
			matches++
			matchedLens = append(matchedLens, len(text))
		}
		refs := make([]store.DocValue, 12)
		for j := range refs {
			refs[j] = store.Nested(store.NewDoc(
				store.F("type", store.Str("Movie")),
				store.F("name", store.Str(fmt.Sprintf("entity %d of fragment %d", j, i))),
				store.F("offset", store.Num(int64(j)))))
		}
		docs[i] = store.NewDoc(
			store.F("source_url", store.Str(fmt.Sprintf("http://feeds.example/%d", i))),
			store.F("text", store.Str(text)),
			store.F("entities", store.List(refs...)))
		footprint += docs[i].SizeBytes()
	}
	ctx := context.Background()
	if err := instances.InsertManyCtx(ctx, docs); err != nil {
		t.Fatal(err)
	}
	budget := (footprint+store.FrameChunk-1)/store.FrameChunk + shards
	if calls := tr.calls.Load(); calls > budget || budget >= n/10 {
		t.Fatalf("loading %d documents (%d B) took %d calls; the budget is %d, a call per chunk and shard", n, footprint, calls, budget)
	}
	if res, err := instances.QueryCtx(ctx, store.Query{}); err != nil || res.Total != n {
		t.Fatalf("after the load the shards hold %d documents (%v), want %d", res.Total, err, n)
	}

	const perDoc, perCall = 16, 256 // length prefixes and the field's name; the frames around the list
	before := tr.bytes.Load()
	feeds, err := (&fuse.Engine{Instances: instances}).TextFeeds(ctx, "Matilda", 1)
	moved := tr.bytes.Load() - before
	if err != nil || len(feeds) != 1 || !strings.Contains(feeds[0], "Matilda") {
		t.Fatalf("TextFeeds: %q, %v", feeds, err)
	}
	slices.Sort(matchedLens)
	var longest int64 // the most any shard's best text can be
	for _, n := range matchedLens[len(matchedLens)-shards:] {
		longest += int64(n)
	}
	if budget := longest + (perDoc+perCall)*shards; moved >= budget {
		t.Errorf("TextFeeds moved %d B for the best of %d matching texts; the budget is %d, one text per shard", moved, matches, budget)
	}
	before = tr.bytes.Load()
	if whole, err := instances.FindCtx(ctx, store.Contains("text", "Matilda")); err != nil || int64(len(whole)) != matches {
		t.Fatalf("FindCtx: %d documents, %v", len(whole), err)
	}
	if unprojected := tr.bytes.Load() - before; unprojected < 3*moved {
		t.Errorf("the same matches as whole documents are %d B, the texts alone %d B: want a third or less", unprojected, moved)
	}
}

// TestTopDiscussedMovesKeysNotMatches: Table IV over a two-node cluster is
// a group count on the wire. Each shard answers with its ten names and
// their counts — under 1 KB a call, request included — however many of
// its 1 000 mentions match.
func TestTopDiscussedMovesKeysNotMatches(t *testing.T) {
	const shards, perShard = 4, 1000
	nodes := []*countingTransport{{Transport: Loopback{Node: NewNode("a")}}, {Transport: Loopback{Node: NewNode("b")}}}
	backends := make([]store.ShardBackend, shards)
	award := store.Nested(store.NewDoc(store.F("award_winning", store.Str("true"))))
	for i := range backends {
		coll := store.NewCollection(NSEntities, 0)
		coll.EnsureIndex(store.IndexSpec{Name: "type_1", Path: "type", Kind: store.HashIndex})
		for j := 0; j < perShard; j++ {
			coll.Insert(store.NewDoc(
				store.F("type", store.Str("Movie")),
				store.F("name", store.Str(fmt.Sprintf("The Walking Dead, season %d", j%10))),
				store.F("attributes", award)))
		}
		tr := nodes[i%len(nodes)]
		tr.Transport.(Loopback).Node.AddShard(ShardKey(NSEntities, i), coll)
		backends[i] = NewRemoteShard(NSEntities, i, tr, nil)
	}
	entities, err := store.NewShardedBackends(NSEntities, "name", backends)
	if err != nil {
		t.Fatal(err)
	}
	top, err := (&fuse.Engine{Entities: entities}).TopDiscussed(context.Background(), 0)
	if err != nil || len(top) != 10 || top[0].Mentions != shards*perShard/10 {
		t.Fatalf("TopDiscussed = %v, %v", top, err)
	}
	var calls, moved int64
	for _, tr := range nodes {
		calls += tr.calls.Load()
		moved += tr.bytes.Load()
	}
	if calls != shards || moved >= 1024*calls {
		t.Errorf("TopDiscussed took %d calls moving %d B; want one call per shard under 1 KB each", calls, moved)
	}
}
