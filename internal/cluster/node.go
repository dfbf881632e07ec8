package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/dterr"
	"repro/internal/store"
)

// maxRepLog bounds the in-memory replication log per hosted shard. A
// follower further behind than the retained window resyncs with a full
// snapshot instead of incremental events.
const maxRepLog = 16384

// repEvent is one retained mutation, ready to ship inside a
// store.EventLog frame.
type repEvent struct {
	seq     uint64
	kind    byte
	payload []byte
}

// hostedShard is one shard served by a node: the collection, its mutation
// generation, and the retained replication log. gen counts mutations;
// every write increments it, and the assigned value doubles as the
// replication sequence number, so "follower applied seq G" and "follower
// is current through generation G" are the same statement. When the node
// runs with a data directory, dur mirrors every retained event to a
// node-local store.Log under the same sequence numbers.
type hostedShard struct {
	mu     sync.Mutex
	coll   *store.Collection
	gen    uint64
	events []repEvent
	dur    *store.Log // nil when the node runs without -data-dir
}

// view returns the collection and generation under one lock acquisition.
func (h *hostedShard) view() (*store.Collection, uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.coll, h.gen
}

// health captures one shard's readiness view. now is passed in so a
// batch of shards reports against one clock reading.
func (h *hostedShard) health(now time.Time) ShardHealth {
	h.mu.Lock()
	gen, dur := h.gen, h.dur
	h.mu.Unlock()
	sh := ShardHealth{Gen: gen}
	if dur != nil {
		st := dur.Stats()
		sh.Durable = true
		if gen > st.Fence { // a checkpoint may land between the two reads
			sh.WALLag = gen - st.Fence
		}
		if !st.CheckpointAt.IsZero() {
			sh.CheckpointAgeSec = now.Sub(st.CheckpointAt).Seconds()
		}
	}
	return sh
}

// logLocked retains one document mutation event. Must hold h.mu, after
// the mutation was applied and h.gen incremented.
func (h *hostedShard) logLocked(kind byte, id int64, d *store.Doc) error {
	return h.logRawLocked(kind, EncodeIDDoc(id, d))
}

// logRawLocked retains one event with an arbitrary payload and, on a
// durable node, appends it to the shard WAL before the caller
// acknowledges the write. Must hold h.mu, after the mutation was applied
// and h.gen incremented. An error means the event is applied in memory
// but not durable; the caller must withhold the success response.
func (h *hostedShard) logRawLocked(kind byte, payload []byte) error {
	h.events = append(h.events, repEvent{seq: h.gen, kind: kind, payload: payload})
	if len(h.events) > maxRepLog {
		h.events = h.events[len(h.events)-maxRepLog:]
	}
	if h.dur != nil {
		return h.appendDurable(h.gen, kind, payload)
	}
	return nil
}

// appendDurable logs one mutation event at sequence seq. seq must be the
// log's next sequence number — generations increment by one per mutation,
// so any gap means the in-memory shard and its WAL diverged, which is
// corruption, not a recoverable state. Must hold h.mu.
func (h *hostedShard) appendDurable(seq uint64, kind byte, payload []byte) error {
	if next := h.dur.NextSeq(); next != seq {
		return fmt.Errorf("cluster: shard wal at seq %d, event has seq %d", next, seq)
	}
	_, err := h.dur.Append(kind, payload)
	return err
}

// checkpointLocked persists the shard at its current generation and
// truncates its WAL to continue from there. Must hold h.mu.
func (h *hostedShard) checkpointLocked() error {
	coll := h.coll
	return h.dur.Checkpoint(h.gen, func(cpDir string) error { return writeShardCheckpoint(coll, cpDir) })
}

// Node hosts shards and serves the wire protocol over them. One process
// (cmd/dtnode) runs one Node; tests drive a Node directly through the
// loopback transport.
type Node struct {
	name     string
	readOnly bool // follower nodes reject writes

	mu           sync.RWMutex
	shards       map[string]*hostedShard
	replicaProbe func() ReplicaStatus // nil on primaries
}

// NewNode creates an empty node.
func NewNode(name string) *Node {
	return &Node{name: name, shards: make(map[string]*hostedShard)}
}

// Name returns the node name.
func (n *Node) Name() string { return n.name }

// AddShard hosts a collection under the given shard key ("ns/index").
func (n *Node) AddShard(key string, c *store.Collection) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.shards[key] = &hostedShard{coll: c}
}

// ShardKeys returns the hosted shard keys, sorted.
func (n *Node) ShardKeys() []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	keys := make([]string, 0, len(n.shards))
	for k := range n.shards {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (n *Node) shard(key string) *hostedShard {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.shards[key]
}

// errResp builds an error response, classifying non-dterr errors as
// invalid argument (they come from decoding a malformed body).
func errResp(id uint64, err error) *Response {
	var de *dterr.Error
	if !errors.As(err, &de) {
		de = dterr.New(dterr.CodeInvalidArgument, err.Error())
	} else {
		de = dterr.FromCode(de.Code, err.Error())
	}
	return &Response{ID: id, Err: de}
}

// Handle dispatches one decoded request and returns its response. It
// never panics on malformed bodies — decode failures become
// invalid-argument responses, which round-trip to typed errors on the
// client.
func (n *Node) Handle(req *Request) *Response {
	if req.Op == OpPing {
		return &Response{ID: req.ID}
	}
	h := n.shard(req.Shard)
	if h == nil {
		return errResp(req.ID, dterr.Newf(dterr.CodeNotFound, "cluster: node %q does not host shard %q", n.name, req.Shard))
	}
	switch req.Op {
	case OpInsert, OpUpdate, OpDelete, OpCreateIndex, OpCreateTextIndex:
		if n.readOnly {
			return errResp(req.ID, dterr.Newf(dterr.CodeUnavailable, "cluster: node %q is a read-only follower", n.name))
		}
		return n.handleWrite(req, h)
	case OpPull:
		return n.handlePull(req, h)
	case OpInfo:
		// Probes bypass the read fence: a coordinator asks "how warm are
		// you" before deciding whether any generation exists to fence on.
		return n.handleInfo(req, h)
	case OpCheckpoint:
		// Checkpointing is local persistence, not a data mutation, so it is
		// allowed on followers too.
		return n.handleCheckpoint(req, h)
	default:
		return n.handleRead(req, h)
	}
}

func (n *Node) handleWrite(req *Request, h *hostedShard) *Response {
	h.mu.Lock()
	defer h.mu.Unlock()
	resp := &Response{ID: req.ID}
	switch req.Op {
	case OpInsert:
		// The list is decoded whole first: a malformed one stores nothing.
		docs, err := DecodeDocList(req.Body)
		if err != nil {
			return errResp(req.ID, dterr.Wrap(dterr.CodeInvalidArgument, err))
		}
		// Replication and the shard WAL keep one event, and one generation,
		// per document, and a document is logged before the next is stored:
		// a failing WAL leaves at most one document applied but not durable,
		// as it does for any other write.
		ids := make([]int64, len(docs))
		for i, d := range docs {
			ids[i] = h.coll.Insert(d)
			h.gen++
			if err := h.logLocked(EvInsert, ids[i], d); err != nil {
				return errResp(req.ID, dterr.Wrap(dterr.CodeInternal, err))
			}
		}
		resp.Body = EncodeIDs(ids)
	case OpUpdate:
		id, d, err := DecodeIDDoc(req.Body)
		if err != nil || d == nil {
			return errResp(req.ID, fmt.Errorf("cluster: update body: %v", err))
		}
		ok := h.coll.Update(id, d)
		if ok {
			h.gen++
			if err := h.logLocked(EvUpdate, id, d); err != nil {
				return errResp(req.ID, dterr.Wrap(dterr.CodeInternal, err))
			}
		}
		resp.Body = boolBody(ok)
	case OpDelete:
		id, _, err := DecodeIDDoc(req.Body)
		if err != nil {
			return errResp(req.ID, err)
		}
		ok := h.coll.Delete(id)
		if ok {
			h.gen++
			if err := h.logLocked(EvDelete, id, nil); err != nil {
				return errResp(req.ID, dterr.Wrap(dterr.CodeInternal, err))
			}
		}
		resp.Body = boolBody(ok)
	case OpCreateIndex:
		name, path, kind, err := DecodeCreateIndex(req.Body)
		if err != nil {
			return errResp(req.ID, err)
		}
		// An index that already exists is not a write: it takes no
		// generation, no replication slot and no WAL event.
		if h.coll.EnsureIndex(name, path, kind) {
			h.gen++
			if err := h.logRawLocked(EvCreateIndex, req.Body); err != nil {
				return errResp(req.ID, dterr.Wrap(dterr.CodeInternal, err))
			}
		}
	case OpCreateTextIndex:
		rd := bytes.NewReader(req.Body)
		path, err := store.GetString(rd)
		if err != nil {
			return errResp(req.ID, err)
		}
		if h.coll.EnsureTextIndex(path) {
			h.gen++
			if err := h.logRawLocked(EvCreateTextIndex, req.Body); err != nil {
				return errResp(req.ID, dterr.Wrap(dterr.CodeInternal, err))
			}
		}
	}
	resp.Gen = h.gen
	return resp
}

func (n *Node) handleRead(req *Request, h *hostedShard) *Response {
	coll, gen := h.view()
	if req.MinGen > gen {
		// Read-your-writes fence: this replica has not yet applied the
		// generation the caller observed on its write path. Busy tells the
		// client to fall back to the primary.
		return errResp(req.ID, dterr.Newf(dterr.CodeBusy,
			"cluster: node %q shard %q at generation %d, read requires %d", n.name, req.Shard, gen, req.MinGen))
	}
	resp := &Response{ID: req.ID, Gen: gen}
	switch req.Op {
	case OpQuery:
		q, err := DecodeQuery(req.Body)
		if err != nil {
			return errResp(req.ID, err)
		}
		resp.Body = EncodeResult(coll.Query(q), q)
	case OpStats:
		resp.Body = EncodeStats(coll.Stats())
	default:
		return errResp(req.ID, dterr.Newf(dterr.CodeInvalidArgument, "cluster: unknown op %d", req.Op))
	}
	return resp
}

// handlePull serves the replication feed: events after the follower's
// sequence number, or a full snapshot when the retained log no longer
// reaches back that far.
func (n *Node) handlePull(req *Request, h *hostedShard) *Response {
	rd := bytes.NewReader(req.Body)
	afterSeq, err := binary.ReadUvarint(rd)
	if err != nil {
		return errResp(req.ID, err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	resp := &Response{ID: req.ID, Gen: h.gen}
	oldest := h.gen + 1
	if len(h.events) > 0 {
		oldest = h.events[0].seq
	}
	if afterSeq+1 < oldest {
		// The follower is behind the retained window: full resync with the
		// shard's image, which carries its extent size and index layout, so
		// the rebuilt replica serves reads through the same access paths as
		// its primary.
		var buf bytes.Buffer
		buf.WriteByte(PullSnapshot)
		if err := h.coll.WriteSnapshot(&buf); err != nil {
			return errResp(req.ID, dterr.Wrap(dterr.CodeInternal, err))
		}
		resp.Body = buf.Bytes()
		return resp
	}
	var buf bytes.Buffer
	buf.WriteByte(PullEvents)
	log, err := store.NewEventLogAt(&buf, afterSeq+1)
	if err != nil {
		return errResp(req.ID, dterr.Wrap(dterr.CodeInternal, err))
	}
	for _, ev := range h.events {
		if ev.seq <= afterSeq {
			continue
		}
		if _, err := log.Append(ev.kind, ev.payload); err != nil {
			return errResp(req.ID, dterr.Wrap(dterr.CodeInternal, err))
		}
	}
	if err := log.Flush(); err != nil {
		return errResp(req.ID, dterr.Wrap(dterr.CodeInternal, err))
	}
	resp.Body = buf.Bytes()
	return resp
}

// handleInfo serves the warm-probe: generation and document count, with no
// read fence applied.
func (n *Node) handleInfo(req *Request, h *hostedShard) *Response {
	h.mu.Lock()
	defer h.mu.Unlock()
	info := ShardInfo{Gen: h.gen, Count: h.coll.Count()}
	return &Response{ID: req.ID, Gen: h.gen, Body: EncodeShardInfo(info)}
}

// handleCheckpoint persists one shard to the node's data directory on
// demand — the remote side of coordinator-driven checkpoints (SaveStores,
// live checkpoints). Unavailable without -data-dir, which the coordinator
// tolerates the same way it tolerated checkpoints before durability
// existed.
func (n *Node) handleCheckpoint(req *Request, h *hostedShard) *Response {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.dur == nil {
		return errResp(req.ID, dterr.Newf(dterr.CodeUnavailable,
			"cluster: node %q has no data directory; start dtnode with -data-dir", n.name))
	}
	if err := h.checkpointLocked(); err != nil {
		return errResp(req.ID, dterr.Wrap(dterr.CodeInternal, err))
	}
	return &Response{ID: req.ID, Gen: h.gen}
}

// EnableDurability backs every hosted shard with a directory under root:
// existing state is recovered (checkpoint snapshot + WAL replay), the
// recovered state is re-checkpointed (unless the restart was clean) so the
// WAL restarts compact, and every subsequent mutation is appended to the
// shard WAL before its response is sent. Call after AddShard/BuildNode and
// before serving. A recovered shard takes its extent size and indexes from
// its checkpoint image.
func (n *Node) EnableDurability(root string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	for key, h := range n.shards {
		h.mu.Lock()
		lg, coll, err := openShardLog(root, key, h.coll)
		if err == nil {
			h.coll, h.gen, h.dur = coll, lg.NextSeq()-1, lg
		}
		h.mu.Unlock()
		if err != nil {
			return dterr.Wrapf(dterr.CodeOf(err), err, "cluster: shard %s", key)
		}
	}
	return nil
}

// Checkpoint persists every hosted shard (its snapshot, WAL truncated) —
// the shutdown path of a durable dtnode. Unavailable when the node runs
// without a data directory.
func (n *Node) Checkpoint() error {
	n.mu.RLock()
	shards := make(map[string]*hostedShard, len(n.shards))
	for k, h := range n.shards {
		shards[k] = h
	}
	n.mu.RUnlock()
	for key, h := range shards {
		h.mu.Lock()
		var err error
		if h.dur == nil {
			err = dterr.New(dterr.CodeUnavailable, "cluster: node has no data directory")
		} else {
			err = h.checkpointLocked()
		}
		h.mu.Unlock()
		if err != nil {
			return dterr.Wrapf(dterr.CodeOf(err), err, "cluster: checkpoint %s", key)
		}
	}
	return nil
}

// Close releases durability resources (shard WAL file handles). Safe on
// nodes without durability.
func (n *Node) Close() error {
	n.mu.RLock()
	logs := make([]*store.Log, 0, len(n.shards))
	for _, h := range n.shards {
		h.mu.Lock()
		if h.dur != nil {
			logs = append(logs, h.dur)
		}
		h.mu.Unlock()
	}
	n.mu.RUnlock()
	var first error
	for _, lg := range logs {
		if err := lg.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func boolBody(ok bool) []byte {
	if ok {
		return []byte{1}
	}
	return []byte{0}
}

// Serve accepts connections on ln until the listener closes, running one
// goroutine per connection. Requests on a connection are processed
// sequentially, matching the client transport's framing.
func (n *Node) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go n.serveConn(conn)
	}
}

func (n *Node) serveConn(c net.Conn) {
	defer c.Close()
	r := bufio.NewReader(c)
	w := bufio.NewWriter(c)
	for {
		frame, err := store.ReadFrame(r, MaxFrameLen)
		if err != nil {
			return // clean EOF or torn frame: drop the connection either way
		}
		req, err := DecodeRequest(frame)
		if err != nil {
			return // cannot trust the stream past an undecodable request
		}
		resp := n.Handle(req)
		if err := store.WriteFrame(w, resp.Encode()); err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// ShardHealth is one hosted shard's readiness view: the applied
// generation, whether it is disk-backed, and — on durable shards — how
// far the WAL has run ahead of the last committed checkpoint.
type ShardHealth struct {
	Gen              uint64  `json:"gen"`
	Durable          bool    `json:"durable,omitempty"`
	WALLag           uint64  `json:"wal_lag,omitempty"`
	CheckpointAgeSec float64 `json:"checkpoint_age_sec,omitempty"`
}

// ReplicaStatus is a follower's view of its pull loop: how stale the
// last successful pull is, the last pull error if the loop is failing,
// and the state of the circuit breaker guarding the primary transport.
type ReplicaStatus struct {
	Healthy        bool    `json:"healthy"`
	LastPullAgeSec float64 `json:"last_pull_age_sec,omitempty"`
	LastError      string  `json:"last_error,omitempty"`
	Breaker        string  `json:"breaker,omitempty"`
}

// Readiness is the full /healthz document: liveness (the process
// answered) plus readiness (a follower is keeping up with its primary).
// Status is "ok" or "degraded" and mirrors Ready for humans.
type Readiness struct {
	Status  string                 `json:"status"`
	Node    string                 `json:"node"`
	Role    string                 `json:"role"`
	Ready   bool                   `json:"ready"`
	Shards  map[string]ShardHealth `json:"shards"`
	Replica *ReplicaStatus         `json:"replica,omitempty"`
}

// SetReplicaProbe installs the callback Readiness uses to report
// replication health — wired by dtnode when it runs as a follower. The
// probe is invoked outside any node lock.
func (n *Node) SetReplicaProbe(probe func() ReplicaStatus) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.replicaProbe = probe
}

// Readiness snapshots the node's health document: per-shard generation,
// WAL lag, and checkpoint age, plus the replica pull status on
// followers. A node with no replica probe is always ready; a follower is
// ready only while its pull loop reports healthy.
func (n *Node) Readiness() Readiness {
	now := time.Now()
	n.mu.RLock()
	rd := Readiness{
		Node:   n.name,
		Role:   "primary",
		Shards: make(map[string]ShardHealth, len(n.shards)),
	}
	if n.readOnly {
		rd.Role = "follower"
	}
	for key, h := range n.shards {
		rd.Shards[key] = h.health(now)
	}
	probe := n.replicaProbe
	n.mu.RUnlock()
	rd.Ready = true
	if probe != nil {
		st := probe()
		rd.Replica = &st
		rd.Ready = st.Healthy
	}
	rd.Status = "ok"
	if !rd.Ready {
		rd.Status = "degraded"
	}
	return rd
}

// HealthHandler serves GET /healthz-style liveness and readiness: node
// name, role, per-shard health (generation, WAL lag, checkpoint age),
// and replica pull status on followers. A degraded follower answers 503
// so load balancers and orchestration probes see it without parsing the
// body.
func (n *Node) HealthHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rd := n.Readiness()
		w.Header().Set("Content-Type", "application/json")
		if !rd.Ready {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		json.NewEncoder(w).Encode(rd)
	})
}

// Follower pulls the replication feed of a primary node into a local
// (read-only) node at a fixed interval, keeping each hosted shard's
// applied generation in step with the primary's mutation generation.
type Follower struct {
	node     *Node
	primary  Transport
	interval time.Duration

	stop chan struct{}
	done chan struct{}

	mu      sync.Mutex
	lastOK  time.Time // last fully successful PullOnce
	lastErr error     // error from the most recent PullOnce, nil on success
}

// NewFollower wires node to pull from primary every interval (0 selects
// 50ms). The node's hosted shard keys define what is replicated.
func NewFollower(node *Node, primary Transport, interval time.Duration) *Follower {
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	return &Follower{
		node:     node,
		primary:  primary,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Start launches the pull loop. An initial synchronous pull is attempted
// so a freshly started follower is current before the first tick; its
// failure is not fatal (the loop retries).
func (f *Follower) Start() {
	f.PullOnce()
	go f.loop()
}

// Stop terminates the pull loop and waits for it to exit.
func (f *Follower) Stop() {
	close(f.stop)
	<-f.done
}

func (f *Follower) loop() {
	defer close(f.done)
	t := time.NewTicker(f.interval)
	defer t.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-t.C:
			f.PullOnce()
		}
	}
}

// PullOnce pulls every hosted shard once, returning the first error. A
// failed pull leaves the shard at its previous generation — reads keep
// serving the older snapshot, and the read-your-writes fence keeps
// lagging results away from clients that demand newer ones.
func (f *Follower) PullOnce() error {
	var first error
	for _, key := range f.node.ShardKeys() {
		if err := f.pullShard(key); err != nil && first == nil {
			first = err
		}
	}
	now := time.Now()
	f.mu.Lock()
	f.lastErr = first
	if first == nil {
		f.lastOK = now
	}
	f.mu.Unlock()
	return first
}

// Status reports the pull loop's health for readiness probes: healthy
// while the most recent pull succeeded. The Breaker field is left empty;
// the caller that wired a breaker around the primary transport fills it
// in (the follower itself does not know how its transport is wrapped).
func (f *Follower) Status() ReplicaStatus {
	now := time.Now()
	f.mu.Lock()
	lastOK, lastErr := f.lastOK, f.lastErr
	f.mu.Unlock()
	st := ReplicaStatus{Healthy: lastErr == nil && !lastOK.IsZero()}
	if !lastOK.IsZero() {
		st.LastPullAgeSec = now.Sub(lastOK).Seconds()
	}
	if lastErr != nil {
		st.LastError = lastErr.Error()
	}
	return st
}

func (f *Follower) pullShard(key string) error {
	h := f.node.shard(key)
	if h == nil {
		return dterr.Newf(dterr.CodeNotFound, "cluster: follower does not host %q", key)
	}
	_, after := h.view()
	ctx, cancel := context.WithTimeout(context.Background(), DefaultCallTimeout)
	defer cancel()
	var body bytes.Buffer
	store.PutUvarint(&body, after)
	resp, err := f.primary.Call(ctx, &Request{Op: OpPull, Shard: key, Body: body.Bytes()})
	if err != nil {
		return err
	}
	if resp.Err != nil {
		return resp.Err
	}
	if len(resp.Body) == 0 {
		return dterr.New(dterr.CodeInternal, "cluster: empty pull response")
	}
	switch resp.Body[0] {
	case PullSnapshot:
		// The image carries the primary's extent size and index layout, so
		// the rebuilt collection serves reads through every secondary and
		// text index its primary has.
		fresh, err := store.ReadSnapshot(bytes.NewReader(resp.Body[1:]))
		if err != nil {
			return dterr.Wrap(dterr.CodeInternal, err)
		}
		h.mu.Lock()
		h.coll = fresh
		h.gen = resp.Gen
		var derr error
		if h.dur != nil {
			// The resync jumped the generation; a checkpoint re-anchors the
			// shard WAL at the new position.
			derr = h.checkpointLocked()
		}
		h.mu.Unlock()
		if derr != nil {
			return dterr.Wrap(dterr.CodeInternal, derr)
		}
		return nil
	case PullEvents:
		h.mu.Lock()
		defer h.mu.Unlock()
		stats, err := store.ReplayEventLog(bytes.NewReader(resp.Body[1:]), after,
			func(seq uint64, kind byte, payload []byte) error {
				if err := applyEvent(h.coll, kind, payload); err != nil {
					return err
				}
				if h.dur != nil {
					if err := h.appendDurable(seq, kind, payload); err != nil {
						return err
					}
				}
				h.gen = seq
				return nil
			})
		if err != nil {
			return dterr.Wrap(dterr.CodeInternal, err)
		}
		if stats.Truncated {
			return dterr.New(dterr.CodeInternal, "cluster: torn replication feed")
		}
		return nil
	default:
		return dterr.Newf(dterr.CodeInternal, "cluster: unknown pull flag %d", resp.Body[0])
	}
}
