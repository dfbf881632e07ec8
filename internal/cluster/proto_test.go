package cluster

import (
	"bufio"
	"bytes"
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

func TestRequestRoundTrip(t *testing.T) {
	in := &Request{ID: 42, Op: OpQuery, Shard: "dt.entity/3", MinGen: 17, Body: []byte("payload")}
	out, err := DecodeRequest(in.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch: %+v != %+v", out, in)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	in := &Response{ID: 7, Gen: 99, Body: []byte{1, 2, 3}}
	out, err := DecodeResponse(in.Encode())
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
		out, err := DecodeResponse(in.Encode())
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
	out, err := DecodeResponse(in.Encode())
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
		c.Insert(store.NewDoc().
			Set("name", store.Str(row.name)).
			Set("type", store.Str(row.typ)).
			Set("n", store.Num(row.n)))
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
		back, err := DecodeFilter(data)
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
	d := store.NewDoc().Set("k", store.Str("v"))
	id, back, err := DecodeIDDoc(EncodeIDDoc(-5, d))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if id != -5 || back == nil || back.PathString("k") != "v" {
		t.Fatalf("round trip mismatch: id=%d doc=%v", id, back)
	}
	id, back, err = DecodeIDDoc(EncodeIDDoc(8, nil))
	if err != nil || id != 8 || back != nil {
		t.Fatalf("nil-doc round trip: id=%d doc=%v err=%v", id, back, err)
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

func TestCreateIndexRoundTrip(t *testing.T) {
	name, path, kind, err := DecodeCreateIndex(EncodeCreateIndex("name_1", "name", store.HashIndex))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if name != "name_1" || path != "name" || kind != store.HashIndex {
		t.Fatalf("round trip mismatch: %q %q %v", name, path, kind)
	}
}

// TestTornFrame truncates an encoded frame at every length and checks the
// reader reports an error rather than panicking or inventing data.
func TestTornFrame(t *testing.T) {
	var full bytes.Buffer
	req := &Request{ID: 3, Op: OpQuery, Shard: "dt.entity/0", Body: []byte("0123456789")}
	w := bufio.NewWriter(&full)
	if err := store.WriteFrame(w, req.Encode()); err != nil {
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
	f.Add((&Request{ID: 1, Op: OpQuery, Shard: "dt.entity/0", Body: []byte("x")}).Encode())
	f.Add([]byte{})
	f.Add([]byte{0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest(data)
		if err == nil {
			// Whatever decoded must re-encode and decode to the same value.
			back, err := DecodeRequest(req.Encode())
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
	f.Add((&Response{ID: 1, Gen: 2, Body: []byte("x")}).Encode())
	f.Add((&Response{ID: 1, Err: dterr.New(dterr.CodeBusy, "b")}).Encode())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := DecodeResponse(data)
		if err == nil {
			back, err := DecodeResponse(resp.Encode())
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if !reflect.DeepEqual(resp, back) {
				t.Fatalf("unstable round trip: %+v != %+v", back, resp)
			}
		}
	})
}

// queryFrameSeeds are the query request bodies the round-trip test and the
// fuzz target start from: every mode, the window at its extremes.
func queryFrameSeeds(t testing.TB) [][]byte {
	var seeds [][]byte
	for _, q := range []store.Query{
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
	} {
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
		store.NewDoc().Set("name", store.Str("Matilda")).Set("tags", store.List(store.Str("a"), store.Num(2))),
		store.NewDoc().Set("attributes", store.Nested(store.NewDoc().Set("award_winning", store.Str("true")))),
	}
	res, err := DecodeResult(EncodeResult(store.Result{Docs: docs, Total: 6137}, store.Query{}), store.Query{})
	if err != nil || res.Total != 6137 || len(res.Docs) != 2 || res.Docs[1].PathString("attributes.award_winning") != "true" {
		t.Fatalf("result round trip: %+v, %v", res, err)
	}
	// A field list cuts every document down to the listed fields it has, in
	// its own order, and leaves the stored documents alone.
	projected := store.Query{Fields: []string{"tags", "gone", "name", "tags"}}
	res, err = DecodeResult(EncodeResult(store.Result{Docs: docs, Total: 2}, projected), projected)
	if err != nil || len(res.Docs) != 2 || !slices.Equal(res.Docs[0].Names(), []string{"name", "tags"}) || res.Docs[1].Len() != 0 {
		t.Fatalf("projected round trip: %v, %v", res.Docs, err)
	}
	if tags, _ := res.Docs[0].Get("tags"); len(tags.List()) != 2 || docs[0].Len() != 2 || docs[1].Len() != 1 {
		t.Fatalf("projected list field %v; stored documents now %v", tags, docs)
	}
	// A grouped reply carries its groups in order before the window.
	grouped := store.Query{GroupBy: "name", Limit: 1}
	groups := []store.Group{{Key: "Matilda", Count: 4}, {Key: "", Count: 1}, {Key: "7", Count: math.MaxInt64}}
	res, err = DecodeResult(EncodeResult(store.Result{Docs: docs[:1], Total: 9, Groups: groups}, grouped), grouped)
	if err != nil || res.Total != 9 || !slices.Equal(res.Groups, groups) || len(res.Docs) != 1 {
		t.Fatalf("grouped round trip: %+v, %v", res, err)
	}
	plan := store.Explain{AccessPath: "index", IndexName: "type_1", IndexKind: "hash", Reason: "point lookup on type"}
	explain := store.Query{Explain: true, GroupBy: "name"}
	res, err = DecodeResult(EncodeResult(store.Result{Plan: plan, Groups: groups}, explain), explain)
	if err != nil || res.Plan != plan || res.Docs != nil || res.Groups != nil {
		t.Fatalf("plan round trip: %+v, %v", res, err)
	}
}

// TestProjectedDecodeBudget pins what a one-field projected result costs its
// reader: the document, its field list and the value's bytes — not a reader
// or a scratch buffer per document.
func TestProjectedDecodeBudget(t *testing.T) {
	const n = 200
	docs := make([]*store.Doc, n)
	for i := range docs {
		docs[i] = store.NewDoc().
			Set("source_url", store.Str(fmt.Sprintf("http://feeds.example/%d", i))).
			Set("text", store.Str(strings.Repeat("Matilda grossed 960,998 this week. ", 8))).
			Set("entities", store.List(store.Str("Matilda"), store.Str("London")))
	}
	body := EncodeResult(store.Result{Docs: docs, Total: n}, store.Query{Fields: []string{"text"}})
	if whole := EncodeResult(store.Result{Docs: docs, Total: n}, store.Query{}); len(body) >= len(whole)*9/10 {
		t.Fatalf("projected body is %d bytes of the whole documents' %d", len(body), len(whole))
	}
	allocs := testing.AllocsPerRun(20, func() {
		if res, err := DecodeResult(body, store.Query{}); err != nil || len(res.Docs) != n || res.Docs[n-1].Len() != 1 {
			t.Fatalf("decode: %d docs, %v", len(res.Docs), err)
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
	good := EncodeDocList([]*store.Doc{
		store.NewDoc().Set("name", store.Str("a")),
		store.NewDoc().Set("name", store.Str("b")).Set("tags", store.List(store.Str("x"))),
		store.NewDoc().Set("name", store.Str("c")),
	})
	bad := [][]byte{append(slices.Clone(good), 0)}
	for cut := 0; cut < len(good); cut++ {
		bad = append(bad, good[:cut])
	}
	lied := slices.Clone(good)
	lied[1]++ // the first document's length runs into the second
	bad = append(bad, lied)
	for i, body := range bad {
		resp := node.Handle(&Request{Op: OpInsert, Shard: key, Body: body})
		if resp.Err == nil || !errors.Is(resp.Err, dterr.ErrInvalidArgument) {
			t.Fatalf("malformed list %d: response %+v, want invalid argument", i, resp)
		}
		if coll, gen := node.shard(key).view(); coll.Count() != 0 || gen != 0 {
			t.Fatalf("malformed list %d stored %d documents, generation %d", i, coll.Count(), gen)
		}
	}
	resp := node.Handle(&Request{Op: OpInsert, Shard: key, Body: good})
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

// encodeFilter serializes a filter as a query frame carries it; nil
// (match-all) is encodable.
func encodeFilter(f store.Filter) ([]byte, error) {
	d, err := filterDoc(f)
	if err != nil {
		return nil, err
	}
	return store.EncodeDoc(d), nil
}

func mustFilter(t testing.TB, f store.Filter) []byte {
	t.Helper()
	b, err := encodeFilter(f)
	if err != nil {
		t.Fatal(err)
	}
	return b
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
	f.Add([]byte{0x04, 0x00, 0x00})                   // unknown flag
	f.Add([]byte{0x02, 0x00, 0x00, 0x00, 0x00, 0x01}) // group-by flag, empty path
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
// negative count.
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
			if len(res.Docs)+len(res.Groups) > len(data) || res.Total < 0 {
				t.Fatalf("%d docs, %d groups, total %d from %d bytes", len(res.Docs), len(res.Groups), res.Total, len(data))
			}
			for _, g := range res.Groups {
				if g.Count < 0 {
					t.Fatalf("group %q counts %d", g.Key, g.Count)
				}
			}
		}
		_, _ = DecodeResult(data, store.Query{Explain: true})
		// The same bytes as an insert body: a list either decodes whole and
		// re-encodes to itself, or stores nothing.
		if docs, err := DecodeDocList(data); err == nil {
			if back, err := DecodeDocList(EncodeDocList(docs)); err != nil || len(back) != len(docs) {
				t.Fatalf("doc list of %d does not survive a round trip: %d, %v", len(docs), len(back), err)
			}
		}
	})
}

// resultFrameSeeds are the response bodies FuzzDecodeResult starts from: a
// whole-document window, a projected one, a plan, a bare document list (an
// insert body), and torn or lying variants.
func resultFrameSeeds() [][]byte {
	docs := []*store.Doc{
		store.NewDoc().Set("name", store.Str("Matilda")).Set("tags", store.List(store.Str("a"), store.Num(2))),
		store.NewDoc(),
	}
	full := EncodeResult(store.Result{Docs: docs, Total: math.MaxInt64}, store.Query{})
	projected := EncodeResult(store.Result{Docs: docs, Total: 2}, store.Query{Fields: []string{"name"}})
	plan := EncodeResult(store.Result{Plan: store.Explain{AccessPath: "scan", Reason: "no index on name"}}, store.Query{Explain: true})
	list := EncodeDocList(docs)
	groups := []store.Group{{Key: "Matilda", Count: 3}, {Key: "The Walking Dead", Count: math.MaxInt64}}
	counted := EncodeResult(store.Result{Total: 3, Groups: groups}, store.Query{GroupBy: "name"})
	grouped := EncodeResult(store.Result{Docs: docs, Total: 9, Groups: groups}, store.Query{GroupBy: "name", Fields: []string{"name"}})
	return [][]byte{
		full, full[:len(full)-3], projected, projected[:len(projected)-1], plan, plan[:4],
		list, list[:len(list)/2], append(slices.Clone(list), 0),
		{}, {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0xff},
		counted, counted[:len(counted)-2], grouped, grouped[:len(grouped)/2],
		{0x01, 0x01, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x00}, // a count past MaxInt64
	}
}

func FuzzDecodeFilter(f *testing.F) {
	seed, _ := encodeFilter(store.And{store.EqStr("type", "Movie"), store.Not{Inner: store.Exists("gone")}})
	f.Add(seed)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = DecodeFilter(data) // must not panic
	})
}
