package cluster

import (
	"bytes"
	"context"
	"sync/atomic"

	"repro/dterr"
	"repro/internal/store"
)

// RemoteShard implements store.ShardBackend over the wire: one shard of a
// namespace, hosted by a primary node and optionally mirrored by a
// follower. Writes always go to the primary; reads prefer the follower
// and carry the highest generation this client has observed, so a lagging
// replica answers Busy and the read falls back to the primary —
// read-your-writes without coordination.
type RemoteShard struct {
	ns       string
	key      string
	primary  Transport
	follower Transport // nil when the shard has no replica

	// lastGen is the highest shard generation observed on any response,
	// i.e. the freshness this client is entitled to read.
	lastGen atomic.Uint64
}

// NewRemoteShard binds shard idx of namespace ns to its transports.
// follower may be nil.
func NewRemoteShard(ns string, idx int, primary, follower Transport) *RemoteShard {
	return &RemoteShard{ns: ns, key: ShardKey(ns, idx), primary: primary, follower: follower}
}

// NS implements store.ShardBackend.
func (r *RemoteShard) NS() string { return r.ns }

// observe folds a response generation into the freshness watermark.
func (r *RemoteShard) observe(gen uint64) {
	for {
		cur := r.lastGen.Load()
		if gen <= cur || r.lastGen.CompareAndSwap(cur, gen) {
			return
		}
	}
}

// callPrimary sends a request to the primary, surfacing the node's typed
// error when present and tracking the generation watermark.
func (r *RemoteShard) callPrimary(ctx context.Context, op byte, body []byte) (*Response, error) {
	resp, err := r.primary.Call(ctx, &Request{Op: op, Shard: r.key, Body: body})
	if err != nil {
		return nil, err
	}
	if resp.Err != nil {
		return nil, resp.Err
	}
	r.observe(resp.Gen)
	return resp, nil
}

// callRead sends a read to the follower first (fenced at the observed
// generation) and falls back to the primary on any follower failure —
// lagging replica, connection refused, decode error. Context errors are
// not retried: the caller's deadline applies to the whole read.
func (r *RemoteShard) callRead(ctx context.Context, op byte, body []byte) (*Response, error) {
	if r.follower != nil {
		resp, err := r.follower.Call(ctx, &Request{Op: op, Shard: r.key, MinGen: r.lastGen.Load(), Body: body})
		if err == nil && resp.Err == nil {
			// A successful follower response advances the freshness
			// watermark too: the fence must reflect every generation this
			// client has observed, not just the ones primaries reported.
			r.observe(resp.Gen)
			return resp, nil
		}
		if ctx.Err() != nil {
			return nil, dterr.FromContext(ctx.Err())
		}
	}
	return r.callPrimary(ctx, op, body)
}

// Insert implements store.ShardBackend: one frame per store.FrameChunk of
// documents, each stored by the node whole or not at all. A frame closes
// before the document whose footprint (Doc.SizeBytes, which overstates the
// encoding) would take it past the chunk, unless that document is its
// first, so a frame fits the node's reused request buffer. Every frame is
// encoded into the same buffer, which the transport is done with when its
// call returns.
func (r *RemoteShard) Insert(ctx context.Context, docs ...*store.Doc) ([]int64, error) {
	ids := make([]int64, 0, len(docs))
	var body bytes.Buffer
	for len(docs) > 0 {
		n, size := 0, int64(0)
		for n < len(docs) {
			sz := docs[n].SizeBytes()
			if n > 0 && size+sz > store.FrameChunk {
				break
			}
			size += sz
			n++
		}
		body.Reset()
		putDocList(&body, docs[:n], nil)
		resp, err := r.callPrimary(ctx, OpInsert, body.Bytes())
		if err != nil {
			return ids, err
		}
		got, err := DecodeIDs(resp.Body)
		if err != nil || len(got) != n {
			return ids, dterr.Newf(dterr.CodeInternal, "cluster: insert response holds %d ids for %d documents (%v)", len(got), n, err)
		}
		ids, docs = append(ids, got...), docs[n:]
	}
	return ids, nil
}

// Query implements store.ShardBackend: one frame out, one back, carrying at
// most the window's documents and the shard's groups.
func (r *RemoteShard) Query(ctx context.Context, q store.Query) (store.Result, error) {
	body, err := EncodeQuery(q)
	if err != nil {
		return store.Result{}, err
	}
	resp, err := r.callRead(ctx, OpQuery, body)
	if err != nil {
		return store.Result{}, err
	}
	return DecodeResult(resp.Body, q)
}

// Stats implements store.ShardBackend. Stats go to the primary: a
// follower carries the primary's indexes and documents, but not extents
// an older build's deletes left behind, so only the primary's extent
// accounting is authoritative.
func (r *RemoteShard) Stats(ctx context.Context) (store.Stats, error) {
	resp, err := r.callPrimary(ctx, OpStats, nil)
	if err != nil {
		return store.Stats{}, err
	}
	return DecodeStats(resp.Body)
}

// CreateIndex implements store.ShardBackend.
func (r *RemoteShard) CreateIndex(ctx context.Context, ix store.IndexSpec) error {
	var body bytes.Buffer
	store.PutIndexSpec(&body, ix)
	_, err := r.callPrimary(ctx, OpCreateIndex, body.Bytes())
	return err
}
