package cluster

import (
	"bufio"
	"context"
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"repro/dterr"
	"repro/internal/store"
)

// TestTCPTransportConnBound: a burst far beyond maxConns queues on the
// transport's semaphore instead of opening one socket per call. The
// server accepts but never replies, so every admitted call pins its
// connection for the whole attempt — the accepted count mid-burst IS the
// concurrent connection count.
func TestTCPTransportConnBound(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var mu sync.Mutex
	accepted := 0
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			accepted++
			mu.Unlock()
			// Swallow the request, never answer: the call blocks on its
			// response read until the context deadline.
			go func(c net.Conn) {
				buf := make([]byte, 4096)
				for {
					if _, err := c.Read(buf); err != nil {
						c.Close()
						return
					}
				}
			}(c)
		}
	}()

	tr := Dial(ln.Addr().String(), time.Second)
	defer tr.Close()
	const burst = 3 * maxConns
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.Call(ctx, &Request{Op: OpPing}) // every call times out; only the socket count matters
		}()
	}
	// Mid-burst snapshot: all semaphore slots are held by blocked calls,
	// the rest of the burst is queued with no socket open.
	time.Sleep(250 * time.Millisecond)
	mu.Lock()
	peak := accepted
	mu.Unlock()
	if peak > maxConns {
		t.Fatalf("burst of %d opened %d concurrent connections, want <= %d", burst, peak, maxConns)
	}
	if peak == 0 {
		t.Fatal("no connections accepted; burst never reached the server")
	}
	wg.Wait()
}

// frameServe answers one full wire exchange on an accepted connection.
func frameServe(t *testing.T, c net.Conn, node *Node) {
	t.Helper()
	var fb store.FrameBuf
	if err := node.serveFrame(bufio.NewReader(c), c, &fb); err != nil {
		t.Errorf("server exchange: %v", err)
	}
}

// TestTCPTransportRetriesMidHeaderKill: a pooled connection killed after
// delivering only part of the frame header (fewer than frameHeaderLen
// bytes) is retried once on a fresh connection — the regression guard
// for the stale-pool retry, which used to cover only zero-byte reads.
func TestTCPTransportRetriesMidHeaderKill(t *testing.T) {
	node := NewNode("midframe")
	hostAll(node, 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		// First connection: one clean exchange (so the client pools it),
		// then on the next request deliver 2 bytes of the header and die.
		c, err := ln.Accept()
		if err != nil {
			return
		}
		frameServe(t, c, node)
		r := bufio.NewReader(c)
		if _, err := store.ReadFrame(r, MaxFrameLen); err == nil {
			c.Write([]byte{0xde, 0xad})
		}
		c.Close()
		// Every later connection (the retry's fresh dial) serves normally.
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go node.serveConn(c)
		}
	}()

	tr := Dial(ln.Addr().String(), time.Second)
	defer tr.Close()
	ctx := context.Background()
	if _, err := tr.Call(ctx, &Request{Op: OpPing}); err != nil {
		t.Fatalf("first call: %v", err)
	}
	if _, err := tr.Call(ctx, &Request{Op: OpPing}); err != nil {
		t.Fatalf("call on mid-header-killed pooled conn = %v, want retried success", err)
	}
}

// TestTCPTransportNoRetryPastHeader: once a complete frame header has
// arrived, the response payload was in flight and the exchange must NOT
// be silently retried — the caller gets the error.
func TestTCPTransportNoRetryPastHeader(t *testing.T) {
	node := NewNode("pastheader")
	hostAll(node, 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var mu sync.Mutex
	accepted := 0
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		mu.Lock()
		accepted++
		mu.Unlock()
		frameServe(t, c, node)
		r := bufio.NewReader(c)
		if _, err := store.ReadFrame(r, MaxFrameLen); err == nil {
			// A full header (claiming a 64-byte frame) plus one payload
			// byte, then the kill: the client saw response bytes.
			hdr := make([]byte, 5)
			binary.LittleEndian.PutUint32(hdr, 64)
			hdr[4] = 0x01
			c.Write(hdr)
		}
		c.Close()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			accepted++
			mu.Unlock()
			go node.serveConn(c)
		}
	}()

	tr := Dial(ln.Addr().String(), time.Second)
	defer tr.Close()
	ctx := context.Background()
	if _, err := tr.Call(ctx, &Request{Op: OpPing}); err != nil {
		t.Fatalf("first call: %v", err)
	}
	if _, err := tr.Call(ctx, &Request{Op: OpPing}); dterr.CodeOf(err) != dterr.CodeBusy {
		t.Fatalf("mid-payload kill = %v, want busy error (no silent retry)", err)
	}
	mu.Lock()
	n := accepted
	mu.Unlock()
	if n != 1 {
		t.Fatalf("transport dialed %d connections, want 1 — a mid-payload kill must not trigger the stale-pool retry", n)
	}
}

// TestTCPTransportIdleEviction: a pooled connection that outlives
// idleConnTimeout is discarded and closed instead of reused.
func TestTCPTransportIdleEviction(t *testing.T) {
	node := NewNode("idle")
	hostAll(node, 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go node.Serve(ln)

	tr := Dial(ln.Addr().String(), time.Second)
	defer tr.Close()
	ctx := context.Background()
	if _, err := tr.Call(ctx, &Request{Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	tr.mu.Lock()
	if len(tr.idle) != 1 {
		tr.mu.Unlock()
		t.Fatalf("idle pool size = %d, want 1", len(tr.idle))
	}
	stale := tr.idle[0]
	stale.lastUsed = time.Now().Add(-idleConnTimeout - time.Minute)
	tr.mu.Unlock()

	if _, err := tr.Call(ctx, &Request{Op: OpPing}); err != nil {
		t.Fatalf("call after idle eviction: %v", err)
	}
	// The stale socket must be closed: a read errors immediately instead
	// of timing out (still-open) or delivering bytes (reused).
	stale.c.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	_, rerr := stale.c.Read(make([]byte, 1))
	if rerr == nil {
		t.Fatal("stale pooled conn delivered data after eviction")
	}
	if nerr, ok := rerr.(net.Error); ok && nerr.Timeout() {
		t.Fatal("stale pooled conn still open after eviction (read timed out instead of failing)")
	}
}
