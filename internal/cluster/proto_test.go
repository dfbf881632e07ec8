package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/dterr"
	"repro/internal/record"
	"repro/internal/store"
)

// encodeDocList packs docs as an insert request body.
func encodeDocList(docs []*store.Doc) []byte {
	var buf bytes.Buffer
	putDocList(&buf, docs, nil)
	return buf.Bytes()
}

func TestRequestRoundTrip(t *testing.T) {
	in := &Request{ID: 42, Op: OpQuery, Shard: "dt.entity/3", MinGen: 17, Body: []byte("payload")}
	out, err := DecodeRequest(requestPayload(t, in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch: %+v != %+v", out, in)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	in := &Response{ID: 7, Gen: 99, Body: []byte{1, 2, 3}}
	out, err := DecodeResponse(responsePayload(t, in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch: %+v != %+v", out, in)
	}
}

// TestErrorWireRoundTrip sends every member of the dterr taxonomy through
// the response codec and checks errors.Is still matches the sentinel on
// the far side — the property the transport's typed degradation relies on.
func TestErrorWireRoundTrip(t *testing.T) {
	sentinels := map[dterr.Code]error{
		dterr.CodeInvalidArgument:  dterr.ErrInvalidArgument,
		dterr.CodeNotFound:         dterr.ErrNotFound,
		dterr.CodeBusy:             dterr.ErrBusy,
		dterr.CodeClosed:           dterr.ErrClosed,
		dterr.CodeUnavailable:      dterr.ErrUnavailable,
		dterr.CodeCanceled:         dterr.ErrCanceled,
		dterr.CodeDeadlineExceeded: dterr.ErrDeadlineExceeded,
		dterr.CodeInternal:         dterr.ErrInternal,
	}
	codes := dterr.Codes()
	if len(codes) != len(sentinels) {
		t.Fatalf("taxonomy has %d codes, test covers %d — extend the test", len(codes), len(sentinels))
	}
	for _, code := range codes {
		in := &Response{ID: 1, Err: dterr.FromCode(code, "boom: "+string(code))}
		out, err := DecodeResponse(responsePayload(t, in))
		if err != nil {
			t.Fatalf("%s: decode: %v", code, err)
		}
		if out.Err == nil {
			t.Fatalf("%s: error lost on the wire", code)
		}
		if !errors.Is(out.Err, sentinels[code]) {
			t.Errorf("%s: decoded error does not match sentinel: %v", code, out.Err)
		}
		if dterr.CodeOf(out.Err) != code {
			t.Errorf("%s: decoded code = %s", code, dterr.CodeOf(out.Err))
		}
		if out.Err.Message != "boom: "+string(code) {
			t.Errorf("%s: message = %q", code, out.Err.Message)
		}
	}
}

func TestErrorWireUnknownCode(t *testing.T) {
	in := &Response{Err: &dterr.Error{Code: "from_the_future", Message: "??"}}
	out, err := DecodeResponse(responsePayload(t, in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if dterr.CodeOf(out.Err) != dterr.CodeInternal {
		t.Fatalf("unknown code should degrade to internal, got %s", dterr.CodeOf(out.Err))
	}
}

// TestFilterRoundTrip checks semantic equivalence: a decoded filter must
// select the same documents as the original.
func TestFilterRoundTrip(t *testing.T) {
	c := store.NewCollection("dt.f", 0)
	for _, row := range []struct {
		name string
		typ  string
		n    int64
	}{
		{"alpha", "Movie", 3}, {"beta", "Actor", 7}, {"gamma", "Movie", 9}, {"alphabet", "Show", 1},
	} {
		c.Insert(store.NewDoc(
			store.F("name", store.Str(row.name)),
			store.F("type", store.Str(row.typ)),
			store.F("n", store.Num(row.n))))
	}
	filters := map[string]store.Filter{
		"nil":      nil,
		"all":      store.All{},
		"eq":       store.EqStr("type", "Movie"),
		"num":      store.Eq("n", record.Int(7)),
		"contains": store.Contains("name", "pha"),
		"prefix":   prefixCond("name", "alpha"),
		"exists":   store.Exists("type"),
		"in":       inCond("type", record.String("Movie"), record.String("Show")),
		"range":    store.And{store.Cond{Path: "n", Op: store.OpGe, Value: record.Int(2)}, store.Cond{Path: "n", Op: store.OpLt, Value: record.Int(8)}},
		"and":      store.And{store.EqStr("type", "Movie"), store.Contains("name", "a")},
		"or":       store.Or{store.EqStr("type", "Show"), store.EqStr("type", "Actor")},
		"not":      store.Not{Inner: store.EqStr("type", "Movie")},
		"nested":   store.And{store.Not{Inner: store.EqStr("type", "Actor")}, store.Or{prefixCond("name", "al"), store.Eq("n", record.Int(9))}},
	}
	for name, f := range filters {
		data, err := encodeFilter(f)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		back, err := store.ReadFilter(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		want := c.Query(store.Query{Filter: f, Limit: store.NoLimit}).Docs
		got := c.Query(store.Query{Filter: back, Limit: store.NoLimit}).Docs
		if len(want) != len(got) {
			t.Fatalf("%s: original matched %d docs, decoded matched %d", name, len(want), len(got))
		}
		for i := range want {
			if want[i].PathString("name") != got[i].PathString("name") {
				t.Errorf("%s: doc %d: %q != %q", name, i, got[i].PathString("name"), want[i].PathString("name"))
			}
		}
	}
}

func TestIDDocRoundTrip(t *testing.T) {
	d := store.NewDoc(store.F("k", store.Str("v")))
	id, back, err := store.DecodeIDDoc(store.EncodeIDDoc(-5, d))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if id != -5 || back == nil || back.PathString("k") != "v" {
		t.Fatalf("round trip mismatch: id=%d doc=%v", id, back)
	}
	// The id alone, as a delete carried it, is no payload any more.
	if id, back, err = store.DecodeIDDoc(binary.LittleEndian.AppendUint64(nil, 8)); err == nil {
		t.Fatalf("an id-only payload decoded to id=%d doc=%v", id, back)
	}
}

func TestStatsRoundTrip(t *testing.T) {
	in := store.Stats{NS: "dt.entity", Count: 1200, NumExtents: 3, NIndexes: 8,
		LastExtentSize: 1 << 20, TotalIndexSize: 4096, DataSize: 99999, AvgObjSize: 83}
	out, err := DecodeStats(EncodeStats(in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch: %+v != %+v", out, in)
	}
}

// specBody is an index spec's encoding: an OpCreateIndex body and an
// EvCreateIndex payload.
func specBody(ix store.IndexSpec) []byte {
	var buf bytes.Buffer
	store.PutIndexSpec(&buf, ix)
	return buf.Bytes()
}

// TestCreateIndexRoundTrip: a spec of each kind crosses the wire as an
// OpCreateIndex body and creates that index on the node, as its image's
// layout shows.
func TestCreateIndexRoundTrip(t *testing.T) {
	node := NewNode("n")
	hostAll(node, 1)
	shard := NewRemoteShard(NSEntities, 0, Loopback{Node: node}, nil)
	specs := []store.IndexSpec{
		{Name: "name_1", Path: "name", Kind: store.BTreeIndex},
		{Name: "type_1", Path: "type", Kind: store.HashIndex},
		{Path: "text", Kind: store.TextIndex},
	}
	for _, ix := range specs {
		if err := shard.CreateIndex(context.Background(), ix); err != nil {
			t.Fatalf("create %+v: %v", ix, err)
		}
	}
	var image bytes.Buffer
	coll, gen := node.shard(ShardKey(NSEntities, 0)).view()
	if err := coll.WriteSnapshot(&image, 0); err != nil {
		t.Fatal(err)
	}
	img, err := store.ReadImage(&image, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(img.Layout, specs) || gen != uint64(len(specs)) {
		t.Fatalf("layout %+v at generation %d, want %+v at %d", img.Layout, gen, specs, len(specs))
	}
}

// TestTornFrame truncates an encoded frame at every length and checks the
// reader reports an error rather than panicking or inventing data.
func TestTornFrame(t *testing.T) {
	var full bytes.Buffer
	req := &Request{ID: 3, Op: OpQuery, Shard: "dt.entity/0", Body: []byte("0123456789")}
	w := bufio.NewWriter(&full)
	if err := writeRequest(w, &bytes.Buffer{}, req); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	whole := full.Bytes()
	for cut := 0; cut < len(whole); cut++ {
		br := bufio.NewReader(bytes.NewReader(whole[:cut]))
		if _, err := store.ReadFrame(br, MaxFrameLen); err == nil {
			t.Fatalf("truncation at %d/%d bytes read a full frame", cut, len(whole))
		}
	}
	// The intact frame still decodes.
	br := bufio.NewReader(bytes.NewReader(whole))
	frame, err := store.ReadFrame(br, MaxFrameLen)
	if err != nil {
		t.Fatalf("intact frame: %v", err)
	}
	back, err := DecodeRequest(frame)
	if err != nil || back.Shard != req.Shard {
		t.Fatalf("intact frame decode: %+v, %v", back, err)
	}
	// A flipped payload bit must fail the CRC.
	corrupt := append([]byte(nil), whole...)
	corrupt[6] ^= 0x40
	br = bufio.NewReader(bytes.NewReader(corrupt))
	if _, err := store.ReadFrame(br, MaxFrameLen); err == nil {
		t.Fatal("corrupt frame passed CRC")
	}
}

// TestFrameLenBound checks the reader refuses a frame whose declared
// length exceeds the wire maximum instead of allocating it.
func TestFrameLenBound(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}
	br := bufio.NewReader(bytes.NewReader(huge))
	if _, err := store.ReadFrame(br, MaxFrameLen); err == nil {
		t.Fatal("oversized frame length accepted")
	}
}

func FuzzDecodeRequest(f *testing.F) {
	f.Add(requestPayload(f, &Request{ID: 1, Op: OpQuery, Shard: "dt.entity/0", Body: []byte("x")}))
	f.Add([]byte{})
	f.Add([]byte{0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest(data)
		if err == nil {
			// Whatever decoded must re-encode and decode to the same value.
			back, err := DecodeRequest(requestPayload(t, req))
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if !reflect.DeepEqual(req, back) {
				t.Fatalf("unstable round trip: %+v != %+v", back, req)
			}
		}
	})
}

func FuzzDecodeResponse(f *testing.F) {
	f.Add(responsePayload(f, &Response{ID: 1, Gen: 2, Body: []byte("x")}))
	f.Add(responsePayload(f, &Response{ID: 1, Err: dterr.New(dterr.CodeBusy, "b")}))
	f.Add([]byte{})
	f.Add([]byte{1, 2, 0, 'x'}) // status 2 is neither success nor error
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := DecodeResponse(data)
		if err == nil {
			if _, n := binary.Uvarint(data); data[n] > 1 {
				t.Fatalf("status %d decoded as %+v", data[n], resp)
			}
			back, err := DecodeResponse(responsePayload(t, resp))
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if !reflect.DeepEqual(resp, back) {
				t.Fatalf("unstable round trip: %+v != %+v", back, resp)
			}
		}
	})
}

// queryFrameCases are the queries whose bodies the round-trip test and the
// fuzz target start from: every mode, the window at its extremes, ranks
// with weights of either sign.
func queryFrameCases() []store.Query {
	return []store.Query{
		{Limit: store.NoLimit},
		{Filter: store.EqStr("type", "Movie"), Offset: 40, Limit: 10},
		{Filter: store.And{store.EqStr("type", "Movie"), store.Not{Inner: store.Contains("name", "x")}}},
		{Filter: inCond("type", record.String("a"), record.Int(3)), Offset: math.MaxInt, Limit: math.MaxInt},
		{Filter: prefixCond("name", "The "), Explain: true},
		{Filter: store.Contains("text", "Matilda"), Limit: store.NoLimit, Fields: []string{"text"}},
		{Limit: 3, Fields: []string{"name", "", "attributes", "name"}},
		{Filter: store.And{store.EqStr("type", "Movie"), store.EqStr("attributes.award_winning", "true")}, GroupBy: "name"},
		{Offset: 2, Limit: 5, Fields: []string{"uid"}, GroupBy: "attributes.award_winning"},
		{Filter: prefixCond("name", "M"), GroupBy: "tags", Explain: true},
		{Filter: store.Contains("text", "Matilda"), Limit: 1, Fields: []string{"text"}, Rank: &store.Rank{Path: "text", Terms: []store.Term{{Text: "Matilda", Weight: 2}, {Text: "grossed", Weight: 4}, {Text: "award-winning", Weight: 1}}}},
		{Offset: 7, Limit: store.NoLimit, GroupBy: "name", Rank: &store.Rank{Path: "attributes.blurb", Terms: []store.Term{{Text: "é", Weight: math.MinInt}, {Text: "", Weight: math.MaxInt}}}},
	}
}

// queryFrameSeeds are the bodies of queryFrameCases.
func queryFrameSeeds(t testing.TB) [][]byte {
	var seeds [][]byte
	for _, q := range queryFrameCases() {
		b, err := EncodeQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	return seeds
}

func TestQueryFrameRoundTrip(t *testing.T) {
	for _, body := range queryFrameSeeds(t) {
		q, err := DecodeQuery(body)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		again, err := EncodeQuery(q)
		if err != nil || !bytes.Equal(again, body) {
			t.Fatalf("query %+v re-encodes differently (%v)", q, err)
		}
		for cut := 0; cut < len(body); cut++ {
			if _, err := DecodeQuery(body[:cut]); err == nil {
				t.Fatalf("query %+v truncated to %d of %d bytes decoded", q, cut, len(body))
			}
		}
	}
	// A negative limit is "no limit" whatever its size; a negative offset
	// is refused.
	var neg bytes.Buffer
	neg.WriteByte(0)
	putVarint(&neg, 0)
	putVarint(&neg, math.MinInt64)
	neg.WriteByte(0) // no field list
	neg.Write(mustFilter(t, nil))
	if q, err := DecodeQuery(neg.Bytes()); err != nil || q.Limit != store.NoLimit {
		t.Fatalf("limit MinInt64 decoded as %+v, %v", q, err)
	}
	neg.Reset()
	neg.WriteByte(0)
	putVarint(&neg, -1)
	putVarint(&neg, 10)
	neg.WriteByte(0)
	neg.Write(mustFilter(t, nil))
	if _, err := DecodeQuery(neg.Bytes()); !errors.Is(err, dterr.ErrInvalidArgument) {
		t.Fatalf("negative offset: %v, want invalid argument", err)
	}

	docs := []*store.Doc{
		store.NewDoc(store.F("name", store.Str("Matilda")), store.F("tags", store.List(store.Str("a"), store.Num(2)))),
		store.NewDoc(store.F("attributes", store.Nested(store.NewDoc(store.F("award_winning", store.Str("true")))))),
	}
	res, err := DecodeResult(encodeResult(store.Result{Docs: docs, Total: 6137}, store.Query{}), store.Query{})
	got := window(t, res, err)
	if res.Total != 6137 || len(got) != 2 || got[1].PathString("attributes.award_winning") != "true" {
		t.Fatalf("result round trip: %+v, %v", res, got)
	}
	// A field list cuts every document down to the listed fields it has, in
	// its own order, and leaves the stored documents alone.
	projected := store.Query{Fields: []string{"tags", "gone", "name", "tags"}}
	res, err = DecodeResult(encodeResult(store.Result{Docs: docs, Total: 2}, projected), projected)
	got = window(t, res, err)
	if len(got) != 2 || !slices.Equal(docNames(got[0]), []string{"name", "tags"}) || got[1].Len() != 0 {
		t.Fatalf("projected round trip: %v", got)
	}
	tags, _ := got[0].Path("tags")
	it := tags.Elems()
	_, first := it.Next()
	_, second := it.Next()
	if _, third := it.Next(); !first || !second || third || docs[0].Len() != 2 || docs[1].Len() != 1 {
		t.Fatalf("projected list field %v; stored documents now %v", tags, docs)
	}
	// A grouped reply carries its groups in order before the window.
	grouped := store.Query{GroupBy: "name", Limit: 1}
	groups := []store.Group{{Key: "Matilda", Count: 4}, {Key: "", Count: 1}, {Key: "7", Count: math.MaxInt64}}
	res, err = DecodeResult(encodeResult(store.Result{Docs: docs[:1], Total: 9, Groups: groups}, grouped), grouped)
	if got = window(t, res, err); res.Total != 9 || !slices.Equal(res.Groups, groups) || len(got) != 1 {
		t.Fatalf("grouped round trip: %+v, %v", res, err)
	}
	plan := store.Explain{AccessPath: "index", IndexName: "type_1", IndexKind: "hash", Reason: "point lookup on type"}
	explain := store.Query{Explain: true, GroupBy: "name"}
	res, err = DecodeResult(encodeResult(store.Result{Plan: plan, Groups: groups}, explain), explain)
	if err != nil || res.Plan != plan || res.Docs != nil || res.Encoded != nil || res.Groups != nil {
		t.Fatalf("plan round trip: %+v, %v", res, err)
	}
}

// window is the documents of a decoded reply, read through Result.Window.
func window(t testing.TB, res store.Result, err error) []*store.Doc {
	t.Helper()
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	docs, err := res.Window()
	if err != nil {
		t.Fatalf("window: %v", err)
	}
	return docs
}

// rankBody is a ranked query body with a nil filter whose rank section is
// section, written raw.
func rankBody(t testing.TB, section func(*bytes.Buffer)) []byte {
	var buf bytes.Buffer
	buf.WriteByte(queryRank)
	putVarint(&buf, 0)
	putVarint(&buf, 1)
	buf.WriteByte(0) // no field list
	section(&buf)
	buf.Write(mustFilter(t, nil))
	return buf.Bytes()
}

// badRankBodies are query bodies whose rank section is malformed, one way
// each, in the order TestDecodeQueryRefusesBadRank names them.
func badRankBodies(t testing.TB) [][]byte {
	term := func(buf *bytes.Buffer, text string, weight int64) {
		store.PutString(buf, text)
		putVarint(buf, weight)
	}
	return [][]byte{
		rankBody(t, func(buf *bytes.Buffer) { // empty path
			store.PutString(buf, "")
			store.PutUvarint(buf, 1)
			term(buf, "Matilda", 2)
		}),
		rankBody(t, func(buf *bytes.Buffer) { // zero terms
			store.PutString(buf, "text")
			store.PutUvarint(buf, 0)
		}),
		rankBody(t, func(buf *bytes.Buffer) { // empty first term
			store.PutString(buf, "text")
			store.PutUvarint(buf, 2)
			term(buf, "", 2)
			term(buf, "grossed", 4)
		}),
		rankBody(t, func(buf *bytes.Buffer) { // a term count beyond the bytes left
			store.PutString(buf, "text")
			store.PutUvarint(buf, 1<<40)
			term(buf, "Matilda", 2)
		}),
		rankBody(t, func(buf *bytes.Buffer) { // a weight that overflows
			store.PutString(buf, "text")
			store.PutUvarint(buf, 1)
			store.PutString(buf, "Matilda")
			buf.Write(bytes.Repeat([]byte{0xff}, binary.MaxVarintLen64))
			buf.WriteByte(0x01)
		}),
		rankBody(t, func(buf *bytes.Buffer) { // torn inside the first term
			store.PutString(buf, "text")
			store.PutUvarint(buf, 1)
			term(buf, "Matilda", 2)
		})[:12],
	}
}

// TestDecodeQueryRefusesBadRank: a rank section without a path or a first
// term, with more terms than bytes, with a weight no int holds or torn is
// an invalid argument; the same body with a well-formed section decodes.
func TestDecodeQueryRefusesBadRank(t *testing.T) {
	names := []string{"empty path", "zero terms", "empty first term", "term count beyond the bytes", "weight overflow", "torn section"}
	for i, body := range badRankBodies(t) {
		if q, err := DecodeQuery(body); !errors.Is(err, dterr.ErrInvalidArgument) {
			t.Errorf("%s: decoded %+v, %v; want invalid argument", names[i], q, err)
		}
	}
	good := rankBody(t, func(buf *bytes.Buffer) {
		store.PutString(buf, "text")
		store.PutUvarint(buf, 2)
		store.PutString(buf, "Matilda")
		putVarint(buf, 2)
		store.PutString(buf, "")
		putVarint(buf, -4)
	})
	want := &store.Rank{Path: "text", Terms: []store.Term{{Text: "Matilda", Weight: 2}, {Text: "", Weight: -4}}}
	if q, err := DecodeQuery(good); err != nil || !reflect.DeepEqual(q.Rank, want) || q.Limit != 1 {
		t.Fatalf("well-formed rank decoded as %+v, %v", q, err)
	}
}

// TestProjectedDecodeBudget pins what a one-field projected result costs its
// reader: the document, its field list and the value's bytes — not a reader
// or a scratch buffer per document.
func TestProjectedDecodeBudget(t *testing.T) {
	const n = 200
	docs := make([]*store.Doc, n)
	for i := range docs {
		docs[i] = store.NewDoc(
			store.F("source_url", store.Str(fmt.Sprintf("http://feeds.example/%d", i))),
			store.F("text", store.Str(strings.Repeat("Matilda grossed 960,998 this week. ", 8))),
			store.F("entities", store.List(store.Str("Matilda"), store.Str("London"))))
	}
	body := encodeResult(store.Result{Docs: docs, Total: n}, store.Query{Fields: []string{"text"}})
	if whole := encodeResult(store.Result{Docs: docs, Total: n}, store.Query{}); len(body) >= len(whole)*9/10 {
		t.Fatalf("projected body is %d bytes of the whole documents' %d", len(body), len(whole))
	}
	allocs := testing.AllocsPerRun(20, func() {
		res, err := DecodeResult(body, store.Query{})
		if got := window(t, res, err); len(got) != n || got[n-1].Len() != 1 {
			t.Fatalf("decode: %d docs", len(got))
		}
	})
	if perDoc := allocs / n; perDoc > 3.05 { // the list itself and its reader are the .05
		t.Fatalf("decoding a one-field result allocates %.2f objects per document, budget 3", perDoc)
	}
}

// TestInsertListAllOrNothing: an insert frame is decoded whole before the
// first document is stored, so a list torn anywhere, or with bytes after it,
// stores nothing and moves no generation.
func TestInsertListAllOrNothing(t *testing.T) {
	node := NewNode("n")
	hostAll(node, 1)
	key := ShardKey(NSEntities, 0)
	good := encodeDocList([]*store.Doc{
		store.NewDoc(store.F("name", store.Str("a"))),
		store.NewDoc(store.F("name", store.Str("b")), store.F("tags", store.List(store.Str("x")))),
		store.NewDoc(store.F("name", store.Str("c"))),
	})
	bad := [][]byte{append(slices.Clone(good), 0)}
	for cut := 0; cut < len(good); cut++ {
		bad = append(bad, good[:cut])
	}
	lied := slices.Clone(good)
	lied[1]++ // the first document's length runs into the second
	bad = append(bad, lied)
	for i, body := range bad {
		resp := loopbackCall(t, node, &Request{Op: OpInsert, Shard: key, Body: body})
		if resp.Err == nil || !errors.Is(resp.Err, dterr.ErrInvalidArgument) {
			t.Fatalf("malformed list %d: response %+v, want invalid argument", i, resp)
		}
		if coll, gen := node.shard(key).view(); coll.Count() != 0 || gen != 0 {
			t.Fatalf("malformed list %d stored %d documents, generation %d", i, coll.Count(), gen)
		}
	}
	resp := loopbackCall(t, node, &Request{Op: OpInsert, Shard: key, Body: good})
	ids, err := DecodeIDs(resp.Body)
	if resp.Err != nil || err != nil || !slices.Equal(ids, []int64{1, 2, 3}) || resp.Gen != 3 {
		t.Fatalf("good list: ids %v, generation %d, %v %v", ids, resp.Gen, resp.Err, err)
	}
}

// prefixCond and inCond build the conditions the query language writes
// as ^ and IN.
func prefixCond(path, p string) store.Cond {
	return store.Cond{Path: path, Op: store.OpPrefix, Value: record.String(p)}
}

func inCond(path string, vs ...record.Value) store.Cond {
	return store.Cond{Path: path, Op: store.OpIn, Set: vs}
}

// FuzzDecodeQuery: a query request body either fails to decode or decodes
// to a query the shard can run — offset not negative, limit not below
// NoLimit — that re-encodes to itself.
func FuzzDecodeQuery(f *testing.F) {
	for _, seed := range queryFrameSeeds(f) {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
	}
	f.Add([]byte{})
	f.Add([]byte{0x08, 0x00, 0x00})                   // unknown flag
	f.Add([]byte{0x02, 0x00, 0x00, 0x00, 0x00, 0x01}) // group-by flag, empty path
	for _, body := range badRankBodies(f) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := DecodeQuery(data)
		if err != nil {
			return
		}
		if q.Offset < 0 || q.Limit < store.NoLimit {
			t.Fatalf("decoded an unrunnable window: %+v", q)
		}
		body, err := EncodeQuery(q)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		back, err := DecodeQuery(body)
		if err != nil || !reflect.DeepEqual(q, back) {
			t.Fatalf("unstable round trip: %+v != %+v (%v)", back, q, err)
		}
	})
}

// FuzzDecodeResult: a query response body never panics the decoder of any
// reply shape nor yields more documents or groups than it has bytes, or a
// negative count; a reply's window stays encoded until it is read, and
// reads whole or fails.
func FuzzDecodeResult(f *testing.F) {
	for _, seed := range resultFrameSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, q := range []store.Query{{}, {GroupBy: "name"}} {
			res, err := DecodeResult(data, q)
			if err != nil {
				continue
			}
			if res.Encoded == nil || res.Docs != nil {
				t.Fatalf("a reply's window decoded as %v, encoded %v", res.Docs, res.Encoded)
			}
			if res.Encoded.Len()+len(res.Groups) > len(data) || res.Total < 0 {
				t.Fatalf("%d docs, %d groups, total %d from %d bytes", res.Encoded.Len(), len(res.Groups), res.Total, len(data))
			}
			for _, g := range res.Groups {
				if g.Count < 0 {
					t.Fatalf("group %q counts %d", g.Key, g.Count)
				}
			}
			if docs, err := res.Window(); err == nil && len(docs) != res.Encoded.Len() {
				t.Fatalf("a window of %d read %d documents", res.Encoded.Len(), len(docs))
			}
		}
		_, _ = DecodeResult(data, store.Query{Explain: true})
		// The same bytes as an insert body: a list either decodes whole and
		// re-encodes to itself, or stores nothing.
		if docs, err := decodeDocList(data); err == nil {
			if back, err := decodeDocList(encodeDocList(docs)); err != nil || !reflect.DeepEqual(back, docs) {
				t.Fatalf("doc list of %d does not survive a round trip: %d, %v", len(docs), len(back), err)
			}
		}
	})
}

// decodeDocList reads a whole document list, as a node reads an insert body.
func decodeDocList(data []byte) ([]*store.Doc, error) {
	list, err := store.ReadDocList(data)
	if err != nil {
		return nil, err
	}
	return list.AppendWindow(nil, 0, list.Len())
}

// resultFrameSeeds are the response bodies FuzzDecodeResult starts from: a
// whole-document window, a projected one, a plan, a bare document list (an
// insert body), and torn or lying variants.
func resultFrameSeeds() [][]byte {
	docs := []*store.Doc{
		store.NewDoc(store.F("name", store.Str("Matilda")), store.F("tags", store.List(store.Str("a"), store.Num(2)))),
		store.NewDoc(),
	}
	full := encodeResult(store.Result{Docs: docs, Total: math.MaxInt64}, store.Query{})
	projected := encodeResult(store.Result{Docs: docs, Total: 2}, store.Query{Fields: []string{"name"}})
	plan := encodeResult(store.Result{Plan: store.Explain{AccessPath: "scan", Reason: "no index on name"}}, store.Query{Explain: true})
	list := encodeDocList(docs)
	groups := []store.Group{{Key: "Matilda", Count: 3}, {Key: "The Walking Dead", Count: math.MaxInt64}}
	counted := encodeResult(store.Result{Total: 3, Groups: groups}, store.Query{GroupBy: "name"})
	grouped := encodeResult(store.Result{Docs: docs, Total: 9, Groups: groups}, store.Query{GroupBy: "name", Fields: []string{"name"}})
	return [][]byte{
		full, full[:len(full)-3], projected, projected[:len(projected)-1], plan, plan[:4],
		list, list[:len(list)/2], append(slices.Clone(list), 0),
		{}, {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0xff},
		counted, counted[:len(counted)-2], grouped, grouped[:len(grouped)/2],
		{0x01, 0x01, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x00}, // a count past MaxInt64
	}
}
