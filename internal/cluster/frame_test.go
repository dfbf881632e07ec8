package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"slices"
	"strings"
	"testing"

	"repro/dterr"
	"repro/internal/store"
)

// refEncodeRequest and refEncodeResponse are the payload encoders the wire
// had before frames were encoded in place: a frame written today must be
// store.WriteFrame of what they return.
func refEncodeRequest(r *Request) []byte {
	var buf bytes.Buffer
	buf.Grow(len(r.Shard) + len(r.Body) + 3*binary.MaxVarintLen64)
	store.PutUvarint(&buf, r.ID)
	buf.WriteByte(r.Op)
	store.PutString(&buf, r.Shard)
	store.PutUvarint(&buf, r.MinGen)
	buf.Write(r.Body)
	return buf.Bytes()
}

func refEncodeResponse(r *Response) []byte {
	var buf bytes.Buffer
	store.PutUvarint(&buf, r.ID)
	if r.Err != nil {
		buf.WriteByte(1)
		store.PutString(&buf, string(r.Err.Code))
		store.PutString(&buf, r.Err.Message)
		return buf.Bytes()
	}
	buf.Grow(len(r.Body) + 2*binary.MaxVarintLen64)
	buf.WriteByte(0)
	store.PutUvarint(&buf, r.Gen)
	buf.Write(r.Body)
	return buf.Bytes()
}

// refEncodeResult is the query response body encoder as it returned a
// body of its own.
func refEncodeResult(res store.Result, q store.Query) []byte {
	var buf bytes.Buffer
	store.PutUvarint(&buf, uint64(res.Total))
	if q.Explain {
		store.PutString(&buf, res.Plan.AccessPath)
		store.PutString(&buf, res.Plan.IndexName)
		store.PutString(&buf, res.Plan.IndexKind)
		store.PutString(&buf, res.Plan.Reason)
		return buf.Bytes()
	}
	if q.GroupBy != "" {
		store.PutUvarint(&buf, uint64(len(res.Groups)))
		for _, g := range res.Groups {
			store.PutString(&buf, g.Key)
			store.PutUvarint(&buf, uint64(g.Count))
		}
	}
	putDocList(&buf, res.Docs, q.Fields)
	return buf.Bytes()
}

// refEncodeQuery is the query request body encoder as it was before a query
// could be ranked: an unranked query's body must still be what it returns.
func refEncodeQuery(t testing.TB, q store.Query) []byte {
	var buf bytes.Buffer
	var flags byte
	if q.Explain {
		flags |= queryExplain
	}
	if q.GroupBy != "" {
		flags |= queryGroup
	}
	buf.WriteByte(flags)
	putVarint(&buf, int64(q.Offset))
	putVarint(&buf, int64(q.Limit))
	store.PutUvarint(&buf, uint64(len(q.Fields)))
	for _, name := range q.Fields {
		store.PutString(&buf, name)
	}
	if q.GroupBy != "" {
		store.PutString(&buf, q.GroupBy)
	}
	buf.Write(mustFilter(t, q.Filter))
	return buf.Bytes()
}

// TestUnrankedQueryBodiesMatchReference: the rank section leaves every
// unranked query's body as it was, byte for byte.
func TestUnrankedQueryBodiesMatchReference(t *testing.T) {
	for _, q := range queryFrameCases() {
		if q.Rank != nil {
			continue
		}
		if got, want := mustQuery(t, q), refEncodeQuery(t, q); !bytes.Equal(got, want) {
			t.Errorf("%+v: body %x, reference %x", q, got, want)
		}
	}
}

// refFrame is store.WriteFrame of payload.
func refFrame(t testing.TB, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := store.WriteFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// requestPayload and responsePayload are the payloads of the frames the
// coordinator and a node write for req and resp.
func requestPayload(t testing.TB, req *Request) []byte {
	t.Helper()
	var buf, head bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writeRequest(w, &head, req); err != nil || w.Flush() != nil {
		t.Fatal(err)
	}
	return payloadOf(t, buf.Bytes())
}

func responsePayload(t testing.TB, resp *Response) []byte {
	t.Helper()
	var fb store.FrameBuf
	out := respFrame{fb: &fb, id: resp.ID}
	if resp.Err != nil {
		out.fail(resp.Err)
	} else {
		out.ok(resp.Gen).Write(resp.Body)
	}
	var buf bytes.Buffer
	if err := fb.Send(&buf); err != nil {
		t.Fatal(err)
	}
	return payloadOf(t, buf.Bytes())
}

func payloadOf(t testing.TB, frame []byte) []byte {
	t.Helper()
	payload, err := store.ReadFrame(bufio.NewReader(bytes.NewReader(frame)), MaxFrameLen)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// encodeResult is the body a node encodes into its response to q.
func encodeResult(res store.Result, q store.Query) []byte {
	var buf bytes.Buffer
	putResult(&buf, res, q)
	return buf.Bytes()
}

// TestRequestFramesMatchReference: the frame the coordinator writes for a
// request, through one reused header buffer, is the reference encoder's.
func TestRequestFramesMatchReference(t *testing.T) {
	query := mustQuery(t, store.Query{Filter: store.EqStr("type", "Movie"), Offset: 20, Limit: 10, Fields: []string{"name"}})
	reqs := []*Request{
		{ID: 1, Op: OpPing},
		{ID: 2, Op: OpQuery, Shard: "dt.entity/3", MinGen: 17, Body: query},
		{ID: 1 << 40, Op: OpInsert, Shard: "dt.instance/0", Body: encodeDocList(walkingDocs(3000))},
		{ID: 4, Op: OpStats, Shard: strings.Repeat("s", 300)},
		{ID: 5, Op: OpPull, Shard: "dt.entity/0", MinGen: 1<<64 - 1, Body: []byte{0}},
	}
	var head bytes.Buffer
	for _, req := range reqs {
		var got bytes.Buffer
		w := bufio.NewWriter(&got)
		if err := writeRequest(w, &head, req); err != nil || w.Flush() != nil {
			t.Fatal(err)
		}
		if want := refFrame(t, refEncodeRequest(req)); !bytes.Equal(got.Bytes(), want) {
			t.Errorf("op %d: request frame of %d bytes differs from the reference's %d", req.Op, got.Len(), len(want))
		}
	}
}

// walkingDocs are n documents of about 50 bytes.
func walkingDocs(n int) []*store.Doc {
	docs := make([]*store.Doc, n)
	for i := range docs {
		docs[i] = store.NewDoc(store.F("type", store.Str("Movie")), store.F("name", store.Str("The Walking Dead, part "+strings.Repeat("x", i%7))))
	}
	return docs
}

// TestResponseFramesMatchReference drives every op through one reused
// FrameBuf, as a connection does, and checks each frame the node writes
// against store.WriteFrame of the reference encoding of the response a
// twin collection, given the same operations, says is due.
func TestResponseFramesMatchReference(t *testing.T) {
	node := NewNode("n")
	key := ShardKey(NSEntities, 0)
	node.AddShard(key, store.NewCollection(NSEntities, 0))
	twin := store.NewCollection(NSEntities, 0)

	docs := walkingDocs(5)
	var ids []int64
	for _, d := range docs {
		ids = append(ids, twin.Insert(d))
	}
	hash := store.IndexSpec{Name: "type_1", Path: "type", Kind: store.HashIndex}
	text := store.IndexSpec{Path: "name", Kind: store.TextIndex}
	twin.EnsureIndex(hash)
	twin.EnsureIndex(text)
	const gen = 7
	image := func(above int64) []byte {
		var buf bytes.Buffer
		if err := twin.WriteSnapshot(&buf, above); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	queries := []store.Query{
		{Limit: store.NoLimit},
		{Filter: store.EqStr("type", "Movie"), Offset: 1, Limit: 2, Fields: []string{"name"}},
		{Filter: store.Contains("name", "Walking"), GroupBy: "type"},
		{Filter: store.EqStr("type", "Movie"), Explain: true},
	}

	type exchange struct {
		req  *Request
		want *Response
	}
	notFound := `cluster: node "n" does not host shard "dt.nowhere/0" (not_found)`
	busy := `cluster: node "n" shard "dt.entity/0" at generation 7, read requires 8 (busy)`
	retired := func(op byte) *Response {
		return &Response{Err: dterr.Newf(dterr.CodeInvalidArgument, "cluster: unknown op %d (invalid_argument)", op)}
	}
	steps := []exchange{
		{&Request{Op: OpPing}, &Response{}},
		{&Request{Op: OpInsert, Shard: key, Body: encodeDocList(docs)}, &Response{Gen: 5, Body: EncodeIDs(ids)}},
		// The retired codes — 3 and 4, the update and delete; 8, a text
		// index's creation; 10, the warm probe — are refused before any
		// fence and change nothing.
		{&Request{Op: 3, Shard: key, Body: store.EncodeIDDoc(ids[0], docs[1])}, retired(3)},
		{&Request{Op: 4, Shard: key, Body: binary.LittleEndian.AppendUint64(nil, uint64(ids[1]))}, retired(4)},
		{&Request{Op: 4, Shard: key, MinGen: 99}, retired(4)},
		{&Request{Op: 8, Shard: key, Body: specBody(text)}, retired(8)},
		{&Request{Op: 10, Shard: key, MinGen: 99}, retired(10)},
		{&Request{Op: OpCreateIndex, Shard: key, Body: specBody(store.IndexSpec{Name: "k_1", Path: "name", Kind: 7})}, &Response{Err: dterr.New(dterr.CodeInvalidArgument, `cluster: index "k_1": unknown kind 7 (invalid_argument)`)}},
		{&Request{Op: OpCreateIndex, Shard: key, Body: specBody(store.IndexSpec{Name: "k_1", Path: "name", Kind: store.TextIndex})}, &Response{Err: dterr.New(dterr.CodeInvalidArgument, `cluster: text index "k_1" over "name": a text index has no name (invalid_argument)`)}},
		{&Request{Op: OpCreateIndex, Shard: key, Body: specBody(hash)}, &Response{Gen: 6}},
		{&Request{Op: OpCreateIndex, Shard: key, Body: specBody(text)}, &Response{Gen: gen}},
		{&Request{Op: OpStats, Shard: key}, &Response{Gen: gen, Body: EncodeStats(twin.Stats())}},
		// A pull answers with the image above the id it names: the whole
		// shard above 0, the layout and the last two documents above the
		// third's id.
		{&Request{Op: OpPull, Shard: key, Body: []byte{0}}, &Response{Gen: gen, Body: image(0)}},
		{&Request{Op: OpPull, Shard: key, Body: binary.AppendUvarint(nil, uint64(ids[2]))}, &Response{Gen: gen, Body: image(ids[2])}},
		{&Request{Op: OpQuery, Shard: "dt.nowhere/0"}, &Response{Err: dterr.New(dterr.CodeNotFound, notFound)}},
		{&Request{Op: OpQuery, Shard: key, MinGen: gen + 1}, &Response{Err: dterr.New(dterr.CodeBusy, busy)}},
		{&Request{Op: OpQuery, Shard: key, Body: []byte{0xff}}, &Response{Err: dterr.New(dterr.CodeInvalidArgument, "cluster: unknown query flags 0xff (invalid_argument)")}},
	}
	for _, q := range queries {
		steps = append(steps, exchange{&Request{Op: OpQuery, Shard: key, Body: mustQuery(t, q)}, &Response{Gen: gen, Body: refEncodeResult(twin.Query(q), q)}})
	}

	var fb store.FrameBuf
	for i, step := range steps {
		step.req.ID, step.want.ID = uint64(i+1), uint64(i+1)
		var got bytes.Buffer
		in := bufio.NewReader(bytes.NewReader(refFrame(t, refEncodeRequest(step.req))))
		if err := node.serveFrame(in, &got, &fb); err != nil {
			t.Fatalf("step %d (op %d): %v", i, step.req.Op, err)
		}
		if want := refFrame(t, refEncodeResponse(step.want)); !bytes.Equal(got.Bytes(), want) {
			back, err := DecodeResponse(payloadOf(t, got.Bytes()))
			t.Errorf("step %d (op %d): response frame differs from the reference\ngot  %+v (%v)\nwant %+v", i, step.req.Op, back, err, step.want)
		}
	}
}

// TestRequestBufferNotAliased: a node reads every request of a connection
// into one buffer, which the longer queries after a create-index request
// overwrite. The index the request created still carries its own name and
// path when a follower pulls the layout after them.
func TestRequestBufferNotAliased(t *testing.T) {
	node := NewNode("n")
	key := ShardKey(NSEntities, 0)
	node.AddShard(key, store.NewCollection(NSEntities, 0))
	client, server := net.Pipe()
	defer client.Close()
	go node.serveConn(server)
	r, w := bufio.NewReader(client), bufio.NewWriter(client)
	var head bytes.Buffer
	call := func(id uint64, op byte, body []byte) *Response {
		t.Helper()
		if err := writeRequest(w, &head, &Request{ID: id, Op: op, Shard: key, Body: body}); err != nil || w.Flush() != nil {
			t.Fatalf("op %d: write: %v", op, err)
		}
		resp, err := readResponse(r, id)
		if err != nil || resp.Err != nil {
			t.Fatalf("op %d: %v %v", op, err, resp)
		}
		return resp
	}
	longQuery := func(n int) []byte {
		return mustQuery(t, store.Query{Filter: store.Contains("name", strings.Repeat("q", n)), Limit: 1})
	}
	createIndex := specBody(store.IndexSpec{Name: "name_1", Path: "name", Kind: store.BTreeIndex})
	call(1, OpQuery, longQuery(400)) // the buffer grows to this frame and is kept
	call(2, OpCreateIndex, createIndex)
	for i := range 3 {
		call(uint64(3+i), OpQuery, longQuery(len(createIndex)+10*i))
	}
	img, err := store.ReadImage(bytes.NewReader(call(6, OpPull, []byte{0}).Body), 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := []store.IndexSpec{{Name: "name_1", Path: "name", Kind: store.BTreeIndex}}; !slices.Equal(img.Layout, want) {
		t.Fatalf("the pulled layout is %+v, want %+v", img.Layout, want)
	}
}

// TestDecodeResponseRefusesUnknownStatus: a response's status byte is 0
// (success) or 1 (error); any other is a corrupt frame, not a success.
func TestDecodeResponseRefusesUnknownStatus(t *testing.T) {
	for status := 2; status < 256; status++ {
		resp, err := DecodeResponse([]byte{7, byte(status), 3, 'x'})
		if err == nil || dterr.CodeOf(err) != dterr.CodeInternal {
			t.Fatalf("status %d decoded as %+v, %v; want an internal error", status, resp, err)
		}
	}
}

// loopbackCall is one request through the frames a node serves.
func loopbackCall(t *testing.T, node *Node, req *Request) *Response {
	t.Helper()
	resp, err := Loopback{Node: node}.Call(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}
