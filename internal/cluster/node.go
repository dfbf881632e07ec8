package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/dterr"
	"repro/internal/store"
)

// hostedShard is one shard served by a node: the collection and its
// generation, which counts mutations — one document's insert, one index's
// creation — on a primary and a follower alike. On a durable node, dur
// logs every mutation under its generation as sequence number.
type hostedShard struct {
	mu   sync.Mutex
	coll *store.Collection
	gen  uint64
	dur  *store.Log // nil when the node runs without -data-dir
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

// logLocked appends the mutation that took the shard to h.gen to the shard
// WAL of a durable node, under sequence number h.gen: a gap means the
// shard and its WAL diverged, which is corruption. An error means the
// mutation is applied but not durable; the caller must not acknowledge it.
// The payload is written before logLocked returns. Must hold h.mu.
func (h *hostedShard) logLocked(kind byte, payload []byte) error {
	if h.dur == nil {
		return nil
	}
	if next := h.dur.NextSeq(); next != h.gen {
		return fmt.Errorf("cluster: shard wal at seq %d, event has seq %d", next, h.gen)
	}
	_, err := h.dur.Append(kind, payload)
	return err
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

// wireErr classifies err for the wire, as invalid argument when it is not
// a dterr error (it comes from decoding a malformed body).
func wireErr(err error) *dterr.Error {
	var de *dterr.Error
	if !errors.As(err, &de) {
		return dterr.New(dterr.CodeInvalidArgument, err.Error())
	}
	return dterr.FromCode(de.Code, err.Error())
}

// handle dispatches one decoded request. On success the handler has
// written the response into out; on error the caller replaces whatever it
// wrote with the error. It never panics on malformed bodies — decode
// failures become invalid-argument responses, which round-trip to typed
// errors on the client.
func (n *Node) handle(req *Request, out respFrame) error {
	if req.Op == OpPing {
		out.ok(0)
		return nil
	}
	h := n.shard(req.Shard)
	if h == nil {
		return dterr.Newf(dterr.CodeNotFound, "cluster: node %q does not host shard %q", n.name, req.Shard)
	}
	switch req.Op {
	case OpInsert, OpCreateIndex:
		if n.readOnly {
			return dterr.Newf(dterr.CodeUnavailable, "cluster: node %q is a read-only follower", n.name)
		}
		return n.handleWrite(req, h, out)
	case OpQuery, OpStats:
		return n.handleRead(req, h, out)
	case OpPull:
		return n.handlePull(req, h, out)
	default:
		// The retired codes — 3 and 4, update and delete; 8, a text
		// index's creation; 10, the warm probe — land here on a primary and
		// a follower alike, before any fence.
		return dterr.Newf(dterr.CodeInvalidArgument, "cluster: unknown op %d", req.Op)
	}
}

func (n *Node) handleWrite(req *Request, h *hostedShard, out respFrame) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	var body []byte
	switch req.Op {
	case OpInsert:
		// The list is decoded whole first: a malformed one stores nothing.
		list, err := store.ReadDocList(req.Body)
		if err != nil {
			return dterr.Wrap(dterr.CodeInvalidArgument, err)
		}
		docs, err := list.AppendWindow(make([]*store.Doc, 0, list.Len()), 0, list.Len())
		if err != nil {
			return dterr.Wrap(dterr.CodeInvalidArgument, err)
		}
		// The shard WAL keeps one event, and the shard one generation, per
		// document, and a document is logged before the next is stored: a
		// failing WAL leaves at most one document applied but not durable,
		// as it does for any other write.
		ids := make([]int64, len(docs))
		for i, d := range docs {
			ids[i] = h.coll.Insert(d)
			h.gen++
			if h.dur == nil {
				continue // a memory-only node encodes nothing
			}
			if err := h.logLocked(EvInsert, store.EncodeIDDoc(ids[i], d)); err != nil {
				return dterr.Wrap(dterr.CodeInternal, err)
			}
		}
		body = EncodeIDs(ids)
	case OpCreateIndex:
		rd := bytes.NewReader(req.Body)
		ix, err := store.GetIndexSpec(rd)
		if err == nil && rd.Len() > 0 {
			// The body is logged as it came: bytes past the spec would ride
			// into the WAL unread.
			err = fmt.Errorf("%d bytes after the index spec", rd.Len())
		}
		if err != nil {
			return dterr.Newf(dterr.CodeInvalidArgument, "cluster: %v", err)
		}
		// An index that already exists is not a write: it takes no
		// generation and no WAL event.
		if h.coll.EnsureIndex(ix) {
			h.gen++
			if err := h.logLocked(EvCreateIndex, req.Body); err != nil {
				return dterr.Wrap(dterr.CodeInternal, err)
			}
		}
	}
	out.ok(h.gen).Write(body)
	return nil
}

func (n *Node) handleRead(req *Request, h *hostedShard, out respFrame) error {
	coll, gen := h.view()
	if req.MinGen > gen {
		// Read-your-writes fence: this replica has not yet applied the
		// generation the caller observed on its write path. Busy tells the
		// client to fall back to the primary.
		return dterr.Newf(dterr.CodeBusy,
			"cluster: node %q shard %q at generation %d, read requires %d", n.name, req.Shard, gen, req.MinGen)
	}
	if req.Op == OpStats {
		out.ok(gen).Write(EncodeStats(coll.Stats()))
		return nil
	}
	q, err := DecodeQuery(req.Body)
	if err != nil {
		return err
	}
	putResult(out.ok(gen), coll.Query(q), q)
	return nil
}

// handlePull answers a follower with the shard's image above the id the
// body names, written under h.mu so that image and generation agree.
func (n *Node) handlePull(req *Request, h *hostedShard, out respFrame) error {
	above, k := binary.Uvarint(req.Body)
	if k <= 0 || k != len(req.Body) {
		return dterr.New(dterr.CodeInvalidArgument, "cluster: a pull body is one id, a uvarint")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.coll.WriteSnapshot(out.ok(h.gen), int64(above)); err != nil {
		return dterr.Wrap(dterr.CodeInternal, err)
	}
	return nil
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
			coll := h.coll
			err = h.dur.Checkpoint(h.gen, func(cpDir string) error { return writeShardCheckpoint(coll, cpDir) })
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
	var fb store.FrameBuf
	for {
		if err := n.serveFrame(r, c, &fb); err != nil {
			return
		}
	}
}

// serveFrame answers one request frame off r with one response frame to w,
// both through the connection's fb: the request is read into its request
// buffer, and the response encoded into its response buffer and written
// whole. An error — clean EOF, a torn frame, a request that cannot be
// decoded, a failed write — means the stream cannot be trusted past it, and
// the caller drops the connection.
func (n *Node) serveFrame(r *bufio.Reader, w io.Writer, fb *store.FrameBuf) error {
	frame, err := fb.Read(r, MaxFrameLen)
	if err != nil {
		return err
	}
	req, err := DecodeRequest(frame)
	if err != nil {
		return err
	}
	out := respFrame{fb: fb, id: req.ID}
	if err := n.handle(req, out); err != nil {
		out.fail(wireErr(err))
	}
	return fb.Send(w)
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

// Follower pulls, at a fixed interval, each shard's image above the last
// id its local (read-only) node holds from a primary node, keeping each
// hosted shard's generation in step with the primary's.
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
	coll, _ := h.view()
	ctx, cancel := context.WithTimeout(context.Background(), DefaultCallTimeout)
	defer cancel()
	resp, err := f.primary.Call(ctx, &Request{Op: OpPull, Shard: key, Body: binary.AppendUvarint(nil, uint64(coll.LastID()))})
	if err != nil {
		return err
	}
	if resp.Err != nil {
		return resp.Err
	}
	if err := h.applyPull(resp.Gen, resp.Body); err != nil {
		return dterr.Wrapf(dterr.CodeInternal, err, "cluster: pull %s", key)
	}
	return nil
}

// applyPull applies body, the primary's image above the follower's highest
// id, at the primary's generation gen. The image is decoded whole first,
// and it must land the shard on gen — its generation, plus the indexes the
// layout adds, plus the documents — or nothing is applied: a follower
// ahead of its primary says so. Indexes go in first, then documents, each
// logged on a durable follower as the WAL event a primary logs for it, a
// document as EncodeIDDoc's frame of its bytes. A follower that holds
// nothing takes its primary's extent size too.
func (h *hostedShard) applyPull(gen uint64, body []byte) error {
	coll, _ := h.view()
	img, err := store.ReadImage(bytes.NewReader(body), coll.LastID())
	if err != nil {
		return err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if coll = h.coll; h.gen == 0 {
		coll = store.NewCollection(coll.NS(), img.ExtentSize)
	}
	added := coll.MissingIndexes(img.Layout)
	if lands := h.gen + uint64(len(added)+len(img.Docs)); lands != gen {
		return fmt.Errorf("cluster: follower at generation %d would land at %d, its primary is at %d", h.gen, lands, gen)
	}
	h.coll = coll
	var spec bytes.Buffer
	for _, ix := range added {
		coll.EnsureIndex(ix)
		h.gen++
		spec.Reset()
		store.PutIndexSpec(&spec, ix)
		if err := h.logLocked(EvCreateIndex, spec.Bytes()); err != nil {
			return err
		}
	}
	for _, d := range img.Docs {
		if err := coll.ApplyReplay(d.ID, d.Doc); err != nil {
			return err
		}
		h.gen++
		if h.dur == nil {
			continue // a memory-only node encodes nothing
		}
		if err := h.logLocked(EvInsert, store.EncodeIDDoc(d.ID, d.Doc)); err != nil {
			return err
		}
	}
	return nil
}
