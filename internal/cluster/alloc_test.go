//go:build !race

// The race detector adds allocations of its own, so an allocation count
// means nothing under it.

package cluster

import (
	"bufio"
	"bytes"
	"context"
	"net"
	"slices"
	"testing"

	"repro/internal/store"
)

// TestQueryRoundTripAllocBudget: a projected ten-document page over a
// reused connection allocates what the query and its result need — the
// node's decoded request and query, read with no filter document between
// bytes and filter, the page it matches, the coordinator's response frame —
// and no copy of either frame.
func TestQueryRoundTripAllocBudget(t *testing.T) {
	node := NewNode("n")
	key := ShardKey(NSEntities, 0)
	coll := store.NewCollection(NSEntities, 0)
	for _, d := range walkingDocs(50) {
		coll.Insert(d)
	}
	node.AddShard(key, coll)
	client, server := net.Pipe()
	defer client.Close()
	go node.serveConn(server)
	r, w := bufio.NewReader(client), bufio.NewWriter(client)
	var head bytes.Buffer
	req := &Request{ID: 1, Op: OpQuery, Shard: key, Body: mustQuery(t, store.Query{Filter: store.Contains("name", "Walking"), Offset: 5, Limit: 10, Fields: []string{"name"}})}
	var resp *Response
	roundTrip := func() {
		if err := writeRequest(w, &head, req); err != nil || w.Flush() != nil {
			t.Fatal(err)
		}
		var err error
		if resp, err = readResponse(r, req.ID); err != nil || resp.Err != nil {
			t.Fatal(err, resp.Err)
		}
	}
	roundTrip()
	if len(resp.Body) < 300 {
		t.Fatalf("fixture drifted: a %d-byte page", len(resp.Body))
	}
	n := testing.AllocsPerRun(200, roundTrip)
	t.Logf("a query round trip allocates %.1f times", n)
	if n > 25 {
		t.Errorf("a query round trip allocates %.1f times, budget 25", n)
	}
}

// TestPagedFindBuildsOnlyItsPage: a find at offset 40, limit 10 over four
// remote shards asks each for its first 50 matches, and each ships them,
// but the router builds only the 10 documents it returns; the 190 it only
// checks cost nothing. Decoding all 200 would cost about 1 000 more.
func TestPagedFindBuildsOnlyItsPage(t *testing.T) {
	fx := newWindowFixture([]int{60, 60, 60, 60})
	s := fx.router(t, nil)
	q := store.Query{Filter: store.EqStr("type", "Movie"), Offset: 40, Limit: 10}
	var res store.Result
	allocs := testing.AllocsPerRun(20, func() {
		var err error
		if res, err = s.QueryCtx(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	})
	if want, _ := fx.want(40, 10); !slices.Equal(uidList(t, res.Docs), want) {
		t.Fatalf("page %v, model %v", uidList(t, res.Docs), want)
	}
	t.Logf("a paged find over four shards allocates %.0f times", allocs)
	if allocs > 300 {
		t.Errorf("a paged find over four shards allocates %.0f times, budget 300", allocs)
	}
}
