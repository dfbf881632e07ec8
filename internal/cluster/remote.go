package cluster

import (
	"bytes"
	"context"
	"fmt"
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

// Insert implements store.ShardBackend: one frame per InsertChunkBytes of
// documents, each stored by the node whole or not at all.
func (r *RemoteShard) Insert(ctx context.Context, docs ...*store.Doc) ([]int64, error) {
	ids := make([]int64, 0, len(docs))
	for len(docs) > 0 {
		n, size := 0, int64(0)
		for n < len(docs) && size < InsertChunkBytes {
			size += docs[n].SizeBytes()
			n++
		}
		resp, err := r.callPrimary(ctx, OpInsert, EncodeDocList(docs[:n]))
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

// Update implements store.ShardBackend.
func (r *RemoteShard) Update(ctx context.Context, id int64, d *store.Doc) (bool, error) {
	resp, err := r.callPrimary(ctx, OpUpdate, EncodeIDDoc(id, d))
	if err != nil {
		return false, err
	}
	return boolFromBody(resp.Body)
}

// Delete implements store.ShardBackend.
func (r *RemoteShard) Delete(ctx context.Context, id int64) (bool, error) {
	resp, err := r.callPrimary(ctx, OpDelete, EncodeIDDoc(id, nil))
	if err != nil {
		return false, err
	}
	return boolFromBody(resp.Body)
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
// follower rebuilt from a snapshot resync carries the primary's indexes
// but not its extent history, so only the primary's extent accounting is
// authoritative.
func (r *RemoteShard) Stats(ctx context.Context) (store.Stats, error) {
	resp, err := r.callPrimary(ctx, OpStats, nil)
	if err != nil {
		return store.Stats{}, err
	}
	return DecodeStats(resp.Body)
}

// CreateIndex implements store.ShardBackend.
func (r *RemoteShard) CreateIndex(ctx context.Context, name, path string, kind store.IndexKind) error {
	_, err := r.callPrimary(ctx, OpCreateIndex, EncodeCreateIndex(name, path, kind))
	return err
}

// CreateTextIndex implements store.ShardBackend.
func (r *RemoteShard) CreateTextIndex(ctx context.Context, path string) error {
	var buf bytes.Buffer
	store.PutString(&buf, path)
	_, err := r.callPrimary(ctx, OpCreateTextIndex, buf.Bytes())
	return err
}

// Info probes the primary's shard state — generation, document count,
// index manifest — without the read fence. Coordinators use it to detect
// warm nodes (recovered from their node-local WAL/checkpoint) before
// deciding whether to re-run batch ingest.
func (r *RemoteShard) Info(ctx context.Context) (ShardInfo, error) {
	resp, err := r.primary.Call(ctx, &Request{Op: OpInfo, Shard: r.key})
	if err != nil {
		return ShardInfo{}, err
	}
	if resp.Err != nil {
		return ShardInfo{}, resp.Err
	}
	r.observe(resp.Gen)
	return DecodeShardInfo(resp.Body)
}

// Checkpoint asks the hosting node to persist this shard to its local
// data directory. Nodes running without -data-dir answer unavailable
// (errors.Is(err, dterr.ErrUnavailable)).
func (r *RemoteShard) Checkpoint(ctx context.Context) error {
	resp, err := r.primary.Call(ctx, &Request{Op: OpCheckpoint, Shard: r.key})
	if err != nil {
		return err
	}
	if resp.Err != nil {
		return resp.Err
	}
	r.observe(resp.Gen)
	return nil
}

func boolFromBody(body []byte) (bool, error) {
	if len(body) != 1 {
		return false, fmt.Errorf("cluster: malformed bool response (%d bytes)", len(body))
	}
	return body[0] == 1, nil
}
