package cluster

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"testing"

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

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.sent.Add(int64(n))
	return n, err
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
		coll.EnsureIndex("type_1", "type", store.HashIndex)
		for j := 0; j < perShard; j++ {
			coll.Insert(store.NewDoc().
				Set("type", store.Str("Movie")).
				Set("name", store.Str(fmt.Sprintf("The Walking Dead, part %d of shard %d", j, i))))
		}
		node.AddShard(ShardKey(NSEntities, i), coll)
		backends[i] = NewRemoteShard(NSEntities, i, tr, nil)
	}
	entities, err := store.NewShardedBackends(NSEntities, "name", backends, nil)
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
