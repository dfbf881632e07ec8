//go:build !race

// The race detector adds allocations of its own, so an allocation count
// means nothing under it.

package cluster

import (
	"bufio"
	"bytes"
	"net"
	"testing"

	"repro/internal/store"
)

// TestQueryRoundTripAllocBudget: a projected ten-document page over a
// reused connection allocates what the query and its result need — the
// node's decoded request and query, the page it matches, the coordinator's
// response frame — and no copy of either frame.
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
	if n > 33 {
		t.Errorf("a query round trip allocates %.1f times, budget 33", n)
	}
}
