package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/dterr"
	"repro/internal/store"
)

// windowFixture is a router over one Loopback shard per entry of matches,
// shard i holding matches[i] documents of type Movie among others, and the
// model of what it holds: each shard's matches, by uid, in its order.
type windowFixture struct {
	node  *Node
	model [][]int64
}

func newWindowFixture(matches []int) *windowFixture {
	fx := &windowFixture{node: NewNode("window")}
	for i, n := range matches {
		coll := store.NewCollection(NSEntities, 0)
		var uids []int64
		for j := 0; j < n; j++ {
			if j%3 == 1 {
				coll.Insert(store.NewDoc(store.F("type", store.Str("Person")), store.F("uid", store.Num(-1))))
			}
			uid := int64(1000*i + j)
			coll.Insert(store.NewDoc(
				store.F("type", store.Str("Movie")),
				store.F("name", store.Str(fmt.Sprintf("The Walking Dead, part %d", uid))),
				store.F("uid", store.Num(uid))))
			uids = append(uids, uid)
		}
		fx.node.AddShard(ShardKey(NSEntities, i), coll)
		fx.model = append(fx.model, uids)
	}
	return fx
}

// router assembles the router, shard i calling through wrap(i, Loopback).
func (fx *windowFixture) router(t testing.TB, wrap func(int, Transport) Transport) *store.Sharded {
	t.Helper()
	backends := make([]store.ShardBackend, len(fx.model))
	for i := range backends {
		var tr Transport = Loopback{Node: fx.node}
		if wrap != nil {
			tr = wrap(i, tr)
		}
		backends[i] = NewRemoteShard(NSEntities, i, tr, nil)
	}
	s, err := store.NewShardedBackends(NSEntities, "name", backends)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// want is the model's answer: the shards' matches concatenated in shard
// order, leaving out the shards in skip, then cut.
func (fx *windowFixture) want(offset, limit int, skip ...int) (uids []int64, total int64) {
	var all []int64
	for i, m := range fx.model {
		if !slices.Contains(skip, i) {
			all = append(all, m...)
		}
	}
	lo, hi := min(offset, len(all)), len(all)
	if limit >= 0 {
		hi = lo + min(limit, hi-lo)
	}
	return all[lo:hi], int64(len(all))
}

func uidList(t testing.TB, docs []*store.Doc) []int64 {
	t.Helper()
	uids := make([]int64, len(docs))
	for i, d := range docs {
		v, _ := d.Path("uid")
		uids[i], _ = v.Scalar().AsInt()
	}
	return uids
}

// unreachable is a transport to a node that is down.
type unreachable struct{}

func (unreachable) Call(context.Context, *Request) (*Response, error) {
	return nil, dterr.New(dterr.CodeUnavailable, "cluster: node down")
}

func (unreachable) Close() error { return nil }

// flipDoc flips a bit of the first value tag of document doc in every
// query reply's list that reaches it, leaving the frame well formed but
// that document malformed.
type flipDoc struct {
	Transport
	doc int
}

func (f flipDoc) Call(ctx context.Context, req *Request) (*Response, error) {
	resp, err := f.Transport.Call(ctx, req)
	if err != nil || resp.Err != nil || req.Op != OpQuery {
		return resp, err
	}
	body := bytes.Clone(resp.Body)
	at := 0
	next := func() int {
		v, n := binary.Uvarint(body[at:])
		at += n
		return int(v)
	}
	next() // total
	if next() <= f.doc {
		return resp, nil
	}
	for range f.doc {
		at += next()
	}
	next()       // the document's length
	next()       // its field count
	at += next() // its first field's name
	body[at] ^= 0x40
	resp.Body = body
	return resp, nil
}

// TestRouterWindowMatchesModel: over four remote shards — one with no
// match — every window, whether it starts inside a shard, straddles two,
// starts past shards whose totals are below its offset or runs past the
// end, holds the model's documents and total; so do a count, an unbounded
// find, and a partial read with one shard unreachable.
func TestRouterWindowMatchesModel(t *testing.T) {
	fx := newWindowFixture([]int{12, 0, 5, 20})
	s := fx.router(t, nil)
	ctx := context.Background()
	movies := store.EqStr("type", "Movie")
	windows := [][2]int{
		{0, 3}, {3, 4}, // inside shard 0
		{10, 5},                   // across shard 0 and shard 2, past the empty shard 1
		{13, 3}, {15, 4}, {17, 3}, // past shards whose totals are below the offset
		{30, 20}, {37, 5}, {100, 5}, // past the end
		{5, 0}, {0, 0}, // the count
		{0, store.NoLimit}, {9, store.NoLimit}, {0, math.MaxInt}, {math.MaxInt, 1},
	}
	for _, w := range windows {
		res, err := s.QueryCtx(ctx, store.Query{Filter: movies, Offset: w[0], Limit: w[1]})
		if err != nil {
			t.Fatalf("window %v: %v", w, err)
		}
		want, total := fx.want(w[0], w[1])
		if got := uidList(t, res.Docs); res.Total != total || !slices.Equal(got, want) {
			t.Fatalf("window %v: %v of %d, model %v of %d", w, got, res.Total, want, total)
		}
	}

	down := fx.router(t, func(i int, tr Transport) Transport {
		if i == 2 {
			return unreachable{}
		}
		return tr
	})
	if _, err := down.QueryCtx(ctx, store.Query{Filter: movies, Limit: 5}); dterr.CodeOf(err) != dterr.CodeUnavailable {
		t.Fatalf("a strict read with shard 2 down: %v, want unavailable", err)
	}
	for _, w := range windows {
		pctx, pr := store.WithPartialReads(ctx)
		res, err := down.QueryCtx(pctx, store.Query{Filter: movies, Offset: w[0], Limit: w[1]})
		if err != nil || pr.Missing() != 1 {
			t.Fatalf("partial window %v: %v, %d shards missing", w, err, pr.Missing())
		}
		want, total := fx.want(w[0], w[1], 2)
		if got := uidList(t, res.Docs); res.Total != total || !slices.Equal(got, want) {
			t.Fatalf("partial window %v: %v of %d, model %v of %d", w, got, res.Total, want, total)
		}
	}
}

// TestRouterWindowChecksWholeReplies: a document the window does not keep
// is still read, so a malformed one fails the query as an internal error —
// in a shard whose list the window ends before, in a shard the offset skips
// whole, in the window itself, and under partial reads, which absorb
// unreachable shards, not corrupt ones.
func TestRouterWindowChecksWholeReplies(t *testing.T) {
	fx := newWindowFixture([]int{12, 0, 5, 20})
	movies := store.EqStr("type", "Movie")
	cases := []struct {
		name        string
		shard, doc  int
		offset, lim int
	}{
		{"after the window", 3, 1, 0, 3},
		{"in a shard the offset skips", 0, 5, 13, 2},
		{"in the window", 2, 1, 12, 3},
	}
	for _, c := range cases {
		s := fx.router(t, func(i int, tr Transport) Transport {
			if i == c.shard {
				return flipDoc{Transport: tr, doc: c.doc}
			}
			return tr
		})
		q := store.Query{Filter: movies, Offset: c.offset, Limit: c.lim}
		if _, err := s.QueryCtx(context.Background(), q); dterr.CodeOf(err) != dterr.CodeInternal {
			t.Errorf("%s: %v, want an internal error", c.name, err)
		}
		pctx, _ := store.WithPartialReads(context.Background())
		if _, err := s.QueryCtx(pctx, q); dterr.CodeOf(err) != dterr.CodeInternal {
			t.Errorf("%s, partial read: %v, want an internal error", c.name, err)
		}
	}
}
