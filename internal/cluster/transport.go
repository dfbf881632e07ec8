package cluster

import (
	"bufio"
	"context"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/dterr"
	"repro/internal/obs"
	"repro/internal/store"
)

// Transport call instrumentation, recorded into the process-wide
// registry: latency per wire op and failures per (op, dterr code). A
// coordinator under load can attribute tail latency to the shard RPCs
// behind it by scraping dtserver's /metrics; dtnode exposes the same
// series for its replication pulls.
var (
	callLatency = obs.Default().Histogram("dt_cluster_call_seconds",
		"Cluster transport call latency in seconds, by wire op.", nil, "op")
	callErrors = obs.Default().Counter("dt_cluster_call_errors_total",
		"Cluster transport call failures, by wire op and error code.", "op", "code")
)

// opNames maps wire op codes to their metric labels.
var opNames = map[byte]string{
	OpPing: "ping", OpInsert: "insert", OpUpdate: "update",
	OpDelete: "delete", OpQuery: "query", OpStats: "stats",
	OpCreateIndex: "create_index", OpCreateTextIndex: "create_text_index",
	OpPull: "pull", OpInfo: "info", OpCheckpoint: "checkpoint",
}

func opName(op byte) string {
	if name, ok := opNames[op]; ok {
		return name
	}
	return "unknown"
}

// observeCall records one finished transport exchange.
func observeCall(op byte, start time.Time, err error) {
	name := opName(op)
	callLatency.With(name).Observe(time.Since(start).Seconds())
	if err != nil {
		callErrors.With(name, string(dterr.CodeOf(err))).Inc()
	}
}

// Transport carries one request to a node and returns its response.
// Implementations classify every failure under the dterr taxonomy:
// context cancellation and deadlines map through dterr.FromContext, and
// connection-level failures (refused, reset, timed out on the socket)
// map to CodeBusy — the caller's cue to degrade or retry elsewhere.
type Transport interface {
	Call(ctx context.Context, req *Request) (*Response, error)
	Close() error
}

// DefaultCallTimeout bounds a call whose context carries no deadline.
const DefaultCallTimeout = 10 * time.Second

// maxIdleConns bounds the per-transport connection pool. Fan-out across
// shards drives a handful of concurrent calls per node; beyond that,
// extra connections are opened and discarded.
const maxIdleConns = 4

// maxConns bounds in-flight connections per transport. A burst beyond it
// queues on the semaphore instead of opening a socket per call, so one
// hot coordinator cannot exhaust a node's accept backlog or its own file
// descriptors.
const maxConns = 16

// idleConnTimeout evicts pooled connections that have sat unused: a
// node-side idle kill or silent middlebox drop would otherwise surface as
// a spurious first-call failure long after the burst that pooled them.
const idleConnTimeout = 60 * time.Second

// frameHeaderLen is the store frame length prefix. A failed exchange that
// read fewer bytes than one header never saw any part of a response, so
// retrying it on a fresh connection cannot observe a half-delivered
// frame.
const frameHeaderLen = 4

// tcpConn is one pooled connection with its buffered endpoints. nread
// counts response bytes off the socket, so a failed exchange can tell "the
// peer never answered" (safe to retry on a fresh connection) from "the
// response died mid-stream".
type tcpConn struct {
	c     net.Conn
	nread *countingReader
	r     *bufio.Reader
	w     *bufio.Writer
	// lastUsed is when the conn went back to the idle pool, for
	// idleConnTimeout eviction.
	lastUsed time.Time
}

// countingReader counts bytes delivered from the underlying reader.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// TCPTransport speaks the wire protocol to one node address over pooled
// TCP connections. Requests on one connection are strictly sequential
// (write frame, read frame), so concurrency comes from the pool: each
// in-flight call owns a connection. Safe for concurrent use.
type TCPTransport struct {
	addr    string
	timeout time.Duration

	nextID atomic.Uint64

	// sem bounds in-flight calls (and thus open sockets) at maxConns;
	// a call holds one slot from acquire to release/close.
	sem chan struct{}

	mu     sync.Mutex
	idle   []*tcpConn
	closed bool
}

// Dial creates a transport for addr. Connections are opened lazily, per
// call, so Dial itself cannot fail; timeout 0 selects DefaultCallTimeout
// for calls without a context deadline.
func Dial(addr string, timeout time.Duration) *TCPTransport {
	if timeout <= 0 {
		timeout = DefaultCallTimeout
	}
	return &TCPTransport{addr: addr, timeout: timeout, sem: make(chan struct{}, maxConns)}
}

// Call implements Transport. The context deadline (or the transport's
// default timeout) becomes the socket deadline for the whole exchange.
// Every call records its latency and failure code into the transport
// metrics above.
func (t *TCPTransport) Call(ctx context.Context, req *Request) (*Response, error) {
	start := time.Now()
	resp, err := t.call(ctx, req)
	observeCall(req.Op, start, err)
	return resp, err
}

func (t *TCPTransport) call(ctx context.Context, req *Request) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, dterr.FromContext(err)
	}
	// Bound in-flight connections: beyond maxConns concurrent calls the
	// burst queues here instead of growing the socket count without
	// limit.
	select {
	case t.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, dterr.FromContext(ctx.Err())
	}
	defer func() { <-t.sem }()
	req.ID = t.nextID.Add(1)
	conn, pooled, err := t.acquire(ctx)
	if err != nil {
		if ctx.Err() != nil {
			return nil, dterr.FromContext(ctx.Err())
		}
		return nil, dterr.Wrapf(dterr.CodeBusy, err, "cluster: dial %s", t.addr)
	}
	deadline, ok := ctx.Deadline()
	if !ok {
		deadline = time.Now().Add(t.timeout)
	}
	readBefore := conn.nread.n
	resp, err := t.exchange(conn, req, deadline)
	if err != nil {
		conn.c.Close()
		if ctx.Err() != nil {
			return nil, dterr.FromContext(ctx.Err())
		}
		// Stale-pool retry: an idle pooled connection to a node that
		// restarted fails on first use (reset/EOF), which would surface a
		// spurious busy burst of up to maxIdleConns calls. When the failed
		// exchange used a pooled conn and no complete frame header arrived
		// — zero bytes, or a connection killed mid-header — the request is
		// retried exactly once on a freshly dialed connection. Fewer than
		// frameHeaderLen bytes means no part of an actual response payload
		// was observed, so the retry cannot splice two half-responses.
		// Like HTTP keep-alive retries this can double-send a request the
		// dead peer already processed but never answered; the window is a
		// conn that died after reading the request and before writing a
		// complete header.
		if pooled && conn.nread.n-readBefore < frameHeaderLen {
			fresh, derr := t.dial(ctx)
			if derr == nil {
				resp, err = t.exchange(fresh, req, deadline)
				if err == nil {
					t.release(fresh)
					return resp, nil
				}
				fresh.c.Close()
				if ctx.Err() != nil {
					return nil, dterr.FromContext(ctx.Err())
				}
			}
		}
		return nil, dterr.Wrapf(dterr.CodeBusy, err, "cluster: call %s", t.addr)
	}
	t.release(conn)
	return resp, nil
}

func (t *TCPTransport) exchange(conn *tcpConn, req *Request, deadline time.Time) (*Response, error) {
	if err := conn.c.SetDeadline(deadline); err != nil {
		return nil, err
	}
	if err := store.WriteFrame(conn.w, req.Encode()); err != nil {
		return nil, err
	}
	if err := conn.w.Flush(); err != nil {
		return nil, err
	}
	frame, err := store.ReadFrame(conn.r, MaxFrameLen)
	if err != nil {
		return nil, err
	}
	resp, err := DecodeResponse(frame)
	if err != nil {
		return nil, err
	}
	if resp.ID != req.ID {
		return nil, dterr.Newf(dterr.CodeInternal, "cluster: response id %d for request %d", resp.ID, req.ID)
	}
	return resp, nil
}

// acquire returns an idle pooled connection (pooled=true) or dials a
// fresh one. Pooled connections older than idleConnTimeout are discarded
// rather than reused.
func (t *TCPTransport) acquire(ctx context.Context) (conn *tcpConn, pooled bool, err error) {
	var stale []*tcpConn
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, false, dterr.New(dterr.CodeClosed, "cluster: transport closed")
	}
	cutoff := time.Now().Add(-idleConnTimeout)
	for conn == nil && len(t.idle) > 0 {
		n := len(t.idle)
		c := t.idle[n-1]
		t.idle = t.idle[:n-1]
		if c.lastUsed.Before(cutoff) {
			stale = append(stale, c)
			continue
		}
		conn = c
	}
	t.mu.Unlock()
	// Sockets close outside the pool lock.
	for _, c := range stale {
		c.c.Close()
	}
	if conn != nil {
		return conn, true, nil
	}
	conn, err = t.dial(ctx)
	return conn, false, err
}

// dial opens a fresh connection to the node.
func (t *TCPTransport) dial(ctx context.Context) (*tcpConn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", t.addr)
	if err != nil {
		return nil, err
	}
	// A dial can win its race against cancellation: DialContext may
	// return a live conn for a context that expired while the handshake
	// completed. Close it here or it leaks — the caller only sees the
	// context error.
	if ctx.Err() != nil {
		c.Close()
		return nil, dterr.FromContext(ctx.Err())
	}
	cr := &countingReader{r: c}
	return &tcpConn{c: c, nread: cr, r: bufio.NewReader(cr), w: bufio.NewWriter(c)}, nil
}

// release returns a healthy connection to the pool, or closes it when the
// pool is full or the transport closed meanwhile. Pool admission also
// evicts any pooled conn that has outlived idleConnTimeout (the pool is
// LIFO, so the oldest sit at the front).
func (t *TCPTransport) release(conn *tcpConn) {
	conn.lastUsed = time.Now()
	var evicted []*tcpConn
	t.mu.Lock()
	cutoff := time.Now().Add(-idleConnTimeout)
	for len(t.idle) > 0 && t.idle[0].lastUsed.Before(cutoff) {
		evicted = append(evicted, t.idle[0])
		t.idle = t.idle[1:]
	}
	pooled := false
	if !t.closed && len(t.idle) < maxIdleConns {
		t.idle = append(t.idle, conn)
		pooled = true
	}
	t.mu.Unlock()
	for _, c := range evicted {
		c.c.Close()
	}
	if !pooled {
		conn.c.Close()
	}
}

// Close implements Transport, closing every pooled connection. In-flight
// calls finish on their own connections.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	idle := t.idle
	t.idle = nil
	t.closed = true
	t.mu.Unlock()
	for _, conn := range idle {
		conn.c.Close()
	}
	return nil
}

// Loopback is an in-process transport that still round-trips every
// request and response through the wire codec, so tests exercise the full
// protocol stack — encoding, dispatch, error mapping — without sockets.
//
//lint:dtlint-allow deadcheck TestClusterChaosSoak and the cluster unit tests: fake
type Loopback struct {
	Node *Node
}

// Call implements Transport.
func (l Loopback) Call(ctx context.Context, req *Request) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, dterr.FromContext(err)
	}
	decoded, err := DecodeRequest(req.Encode())
	if err != nil {
		return nil, dterr.Wrap(dterr.CodeInternal, err)
	}
	resp, err := DecodeResponse(l.Node.Handle(decoded).Encode())
	if err != nil {
		return nil, dterr.Wrap(dterr.CodeInternal, err)
	}
	return resp, nil
}

// Close implements Transport.
func (Loopback) Close() error { return nil }
