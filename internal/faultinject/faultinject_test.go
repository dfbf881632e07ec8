package faultinject

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"repro/dterr"
	"repro/internal/cluster"
	"repro/internal/store"
)

// okTransport answers every call successfully and counts them.
type okTransport struct {
	mu sync.Mutex
	n  int
}

func (o *okTransport) Call(_ context.Context, req *cluster.Request) (*cluster.Response, error) {
	o.mu.Lock()
	o.n++
	o.mu.Unlock()
	return &cluster.Response{ID: req.ID}, nil
}

func (o *okTransport) Close() error { return nil }

func (o *okTransport) calls() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.n
}

// TestRuleWindow: a From/To window fires on exactly those per-node call
// indexes, and only for the named node.
func TestRuleWindow(t *testing.T) {
	in := New(1)
	in.AddRule(Rule{Node: "a", From: 2, To: 3, Fault: Fault{Code: dterr.CodeUnavailable}})
	a := in.Wrap("a", &okTransport{})
	b := in.Wrap("b", &okTransport{})
	ctx := context.Background()
	req := func() *cluster.Request { return &cluster.Request{Op: cluster.OpPing} }

	var got []bool
	for i := 0; i < 5; i++ {
		_, err := a.Call(ctx, req())
		got = append(got, err != nil)
	}
	want := []bool{false, true, true, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("call %d on node a: failed=%v, want %v (schedule %v)", i+1, got[i], want[i], got)
		}
	}
	// Node b has its own call counter and no matching rule.
	for i := 0; i < 5; i++ {
		if _, err := b.Call(ctx, req()); err != nil {
			t.Fatalf("call %d on node b failed: %v", i+1, err)
		}
	}
	if in.Injected()["error"] != 2 {
		t.Fatalf("injected error count = %d, want 2", in.Injected()["error"])
	}
}

// TestRuleEvery fires on every Nth matching call.
func TestRuleEvery(t *testing.T) {
	in := New(1)
	in.AddRule(Rule{Every: 3, Fault: Fault{Code: dterr.CodeBusy}})
	tr := in.Wrap("n", &okTransport{})
	ctx := context.Background()
	for i := 1; i <= 9; i++ {
		_, err := tr.Call(ctx, &cluster.Request{Op: cluster.OpQuery})
		if wantFail := i%3 == 0; (err != nil) != wantFail {
			t.Fatalf("call %d: err=%v, want failure=%v", i, err, wantFail)
		}
	}
}

// TestDeterministicSchedule: two injectors with the same seed and the
// same call sequence produce the identical fault schedule.
func TestDeterministicSchedule(t *testing.T) {
	run := func() []bool {
		in := New(99)
		in.AddRule(Rule{Prob: 0.4, Fault: Fault{Code: dterr.CodeUnavailable}})
		tr := in.Wrap("n", &okTransport{})
		ctx := context.Background()
		var outcomes []bool
		for i := 0; i < 50; i++ {
			_, err := tr.Call(ctx, &cluster.Request{Op: cluster.OpQuery})
			outcomes = append(outcomes, err != nil)
		}
		return outcomes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at call %d despite fixed seed", i)
		}
	}
}

// TestPartitionHeal: a partitioned node fails every call with CodeBusy
// (a dead TCP peer's shape) without touching the inner transport, and
// healing restores it.
func TestPartitionHeal(t *testing.T) {
	in := New(1)
	inner := &okTransport{}
	tr := in.Wrap("n", inner)
	ctx := context.Background()

	in.Partition("n")
	_, err := tr.Call(ctx, &cluster.Request{Op: cluster.OpQuery})
	if dterr.CodeOf(err) != dterr.CodeBusy {
		t.Fatalf("partitioned call error = %v, want busy", err)
	}
	if inner.calls() != 0 {
		t.Fatal("partitioned call reached the inner transport")
	}
	in.Heal("n")
	if _, err := tr.Call(ctx, &cluster.Request{Op: cluster.OpQuery}); err != nil {
		t.Fatalf("healed call failed: %v", err)
	}
}

// TestDropAndDuplicate: Drop does the work but loses the reply;
// Duplicate forwards twice (the retransmit shape).
func TestDropAndDuplicate(t *testing.T) {
	in := New(1)
	inner := &okTransport{}
	tr := in.Wrap("n", inner)
	ctx := context.Background()

	in.SetRules(Rule{From: 1, To: 1, Fault: Fault{Drop: true}})
	_, err := tr.Call(ctx, &cluster.Request{Op: cluster.OpQuery})
	if dterr.CodeOf(err) != dterr.CodeBusy {
		t.Fatalf("dropped call error = %v, want busy", err)
	}
	if inner.calls() != 1 {
		t.Fatalf("dropped call reached inner %d times, want 1 (work done, reply lost)", inner.calls())
	}

	in.SetRules(Rule{From: 2, To: 2, Fault: Fault{Duplicate: true}})
	if _, err := tr.Call(ctx, &cluster.Request{Op: cluster.OpQuery}); err != nil {
		t.Fatalf("duplicated call failed: %v", err)
	}
	if inner.calls() != 3 {
		t.Fatalf("inner calls = %d, want 3 (one dropped + two for the duplicate)", inner.calls())
	}
}

// TestInjectorLatencyHonorsContext: injected latency gives up as soon as
// the caller's context dies rather than sleeping out the full delay.
func TestInjectorLatencyHonorsContext(t *testing.T) {
	in := New(1)
	in.AddRule(Rule{Fault: Fault{Latency: time.Minute}})
	tr := in.Wrap("n", &okTransport{})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := tr.Call(ctx, &cluster.Request{Op: cluster.OpQuery})
	if dterr.CodeOf(err) != dterr.CodeDeadlineExceeded {
		t.Fatalf("latency-faulted call error = %v, want deadline_exceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("injected latency ignored the context deadline")
	}
}

// TestProxyPartition runs a real node behind the TCP proxy: calls work,
// a partition kills live connections and refuses new ones, and healing
// restores byte-identical behavior.
func TestProxyPartition(t *testing.T) {
	node := cluster.NewNode("px")
	key := cluster.ShardKey("dt.entity", 0)
	node.AddShard(key, store.NewCollection("dt.entity", 0))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go node.Serve(ln)

	proxy, err := NewProxy("127.0.0.1:0", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	tr := cluster.Dial(proxy.Addr(), time.Second)
	defer tr.Close()
	ctx := context.Background()
	ping := func() error {
		_, err := tr.Call(ctx, &cluster.Request{Op: cluster.OpPing})
		return err
	}
	if err := ping(); err != nil {
		t.Fatalf("ping through proxy: %v", err)
	}

	proxy.Partition()
	if err := ping(); dterr.CodeOf(err) != dterr.CodeBusy {
		t.Fatalf("ping through partitioned proxy = %v, want busy", err)
	}

	proxy.Heal()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := ping(); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("ping never recovered after heal: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
