package cluster

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/dterr"
)

// scriptedTransport counts calls and delegates each to fn by call number.
type scriptedTransport struct {
	mu sync.Mutex
	n  int
	fn func(n int, req *Request) (*Response, error)
}

func (s *scriptedTransport) Call(ctx context.Context, req *Request) (*Response, error) {
	s.mu.Lock()
	s.n++
	n := s.n
	s.mu.Unlock()
	return s.fn(n, req)
}

func (s *scriptedTransport) Close() error { return nil }

func (s *scriptedTransport) calls() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// noSleep replaces the backoff primitive so retry tests run instantly.
func noSleep(ctx context.Context, _ time.Duration) error {
	if err := ctx.Err(); err != nil {
		return dterr.FromContext(err)
	}
	return nil
}

func newTestTransport(inner Transport, policy RetryPolicy, breaker *Breaker) *ResilientTransport {
	t := NewResilientTransport("test", inner, policy, breaker, 1)
	t.sleep = noSleep
	return t
}

// TestRetryPolicyJitterBounds checks every backoff draw lands in
// [d/2, d] where d is the capped exponential for that retry number.
func TestRetryPolicyJitterBounds(t *testing.T) {
	cases := []struct {
		name   string
		policy RetryPolicy
		retry  int
		want   time.Duration // un-jittered duration for this retry
	}{
		{"first", RetryPolicy{BaseBackoff: 40 * time.Millisecond, MaxBackoff: time.Second}, 1, 40 * time.Millisecond},
		{"doubled", RetryPolicy{BaseBackoff: 40 * time.Millisecond, MaxBackoff: time.Second}, 2, 80 * time.Millisecond},
		{"capped", RetryPolicy{BaseBackoff: 40 * time.Millisecond, MaxBackoff: 100 * time.Millisecond}, 4, 100 * time.Millisecond},
		{"zero-base-defaults", RetryPolicy{}, 1, 25 * time.Millisecond},
	}
	rng := rand.New(rand.NewSource(7))
	for _, c := range cases {
		for i := 0; i < 200; i++ {
			d := c.policy.backoff(c.retry, rng)
			if d < c.want/2 || d > c.want {
				t.Fatalf("%s: backoff draw %v outside [%v, %v]", c.name, d, c.want/2, c.want)
			}
		}
	}
}

// TestRetryTable drives the resilient transport through the retry
// decision matrix: which ops retry, which errors retry, and how many
// inner calls each combination spends.
func TestRetryTable(t *testing.T) {
	cases := []struct {
		name      string
		op        byte
		failures  int // inner calls that fail before success
		code      dterr.Code
		wantCalls int
		wantOK    bool
	}{
		{"read recovers on retry", OpQuery, 2, dterr.CodeBusy, 3, true},
		{"read exhausts attempts", OpQuery, 99, dterr.CodeBusy, 3, false},
		{"unavailable is retryable", OpStats, 1, dterr.CodeUnavailable, 2, true},
		{"write never retried", OpInsert, 99, dterr.CodeBusy, 1, false},
		{"create index never retried", OpCreateIndex, 99, dterr.CodeBusy, 1, false},
		{"invalid argument is terminal", OpQuery, 99, dterr.CodeInvalidArgument, 1, false},
		{"internal is terminal", OpQuery, 99, dterr.CodeInternal, 1, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			inner := &scriptedTransport{fn: func(n int, req *Request) (*Response, error) {
				if n <= c.failures {
					return nil, dterr.Newf(c.code, "scripted failure %d", n)
				}
				return &Response{ID: req.ID}, nil
			}}
			// Large breaker threshold: these cases isolate the retry loop.
			tr := newTestTransport(inner, RetryPolicy{MaxAttempts: 3}, NewBreaker("test", 100, time.Minute))
			_, err := tr.Call(context.Background(), &Request{Op: c.op})
			if (err == nil) != c.wantOK {
				t.Fatalf("err = %v, want ok=%v", err, c.wantOK)
			}
			if got := inner.calls(); got != c.wantCalls {
				t.Fatalf("inner calls = %d, want %d", got, c.wantCalls)
			}
			if !c.wantOK && dterr.CodeOf(err) != c.code {
				t.Fatalf("error code = %s, want %s", dterr.CodeOf(err), c.code)
			}
		})
	}
}

// TestRetryBudgetExhaustion: when the caller's deadline dies mid-retry,
// the loop stops early and surfaces the context's typed error instead of
// burning the remaining attempts against a dead deadline.
func TestRetryBudgetExhaustion(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	inner := &scriptedTransport{fn: func(int, *Request) (*Response, error) {
		return nil, dterr.New(dterr.CodeBusy, "still down")
	}}
	tr := NewResilientTransport("test", inner, RetryPolicy{
		MaxAttempts: 50, BaseBackoff: 10 * time.Millisecond, MaxBackoff: 10 * time.Millisecond,
	}, NewBreaker("test", 1000, time.Minute), 1)
	_, err := tr.Call(ctx, &Request{Op: OpQuery})
	if code := dterr.CodeOf(err); code != dterr.CodeDeadlineExceeded {
		t.Fatalf("error code = %s, want %s (err=%v)", code, dterr.CodeDeadlineExceeded, err)
	}
	if got := inner.calls(); got >= 50 {
		t.Fatalf("inner calls = %d; retry loop ignored the context budget", got)
	}
}

// TestAttemptCtxSplitsBudget: with N attempts left, one attempt gets
// roughly remaining/N, never the whole budget.
func TestAttemptCtxSplitsBudget(t *testing.T) {
	parent, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	actx, acancel := attemptCtx(parent, 3)
	defer acancel()
	ad, ok := actx.Deadline()
	if !ok {
		t.Fatal("attempt context lost the deadline")
	}
	pd, _ := parent.Deadline()
	if !ad.Before(pd) {
		t.Fatalf("attempt deadline %v not before parent %v", ad, pd)
	}
	if until := time.Until(ad); until > 150*time.Millisecond {
		t.Fatalf("attempt budget %v, want ~1/3 of 300ms", until)
	}
	// Last attempt spends whatever is left: the context passes through.
	last, lcancel := attemptCtx(parent, 1)
	defer lcancel()
	if ld, _ := last.Deadline(); !ld.Equal(pd) {
		t.Fatalf("last-attempt deadline %v, want parent %v", ld, pd)
	}
}

// TestBreakerTransitions walks closed → open → half-open → closed and the
// probe-failure re-open, on a fake clock.
func TestBreakerTransitions(t *testing.T) {
	now := time.Unix(1000, 0)
	b := NewBreaker("bt", 3, 100*time.Millisecond)
	b.now = func() time.Time { return now }

	if !b.Allow() {
		t.Fatal("closed breaker rejected a call")
	}
	b.OnFailure()
	b.OnFailure()
	if b.State() != breakerClosed {
		t.Fatalf("state after 2 failures = %d, want closed", b.State())
	}
	b.OnFailure()
	if b.State() != breakerOpen {
		t.Fatalf("state after threshold failures = %d, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a call before cooldown")
	}

	// Cooldown elapses: exactly one probe is admitted.
	now = now.Add(150 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("breaker did not admit the half-open probe")
	}
	if b.State() != breakerHalfOpen {
		t.Fatalf("state during probe = %d, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("second call admitted while probe in flight")
	}

	// Probe failure re-opens for another full cooldown.
	b.OnFailure()
	if b.State() != breakerOpen {
		t.Fatalf("state after failed probe = %d, want open", b.State())
	}
	now = now.Add(150 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("breaker did not re-admit a probe after second cooldown")
	}
	b.OnSuccess()
	if b.State() != breakerClosed {
		t.Fatalf("state after successful probe = %d, want closed", b.State())
	}
	if b.StateName() != "closed" {
		t.Fatalf("StateName = %q, want closed", b.StateName())
	}
}

// TestBreakerFailsFast: once open, the resilient transport rejects calls
// without touching the inner transport.
func TestBreakerFailsFast(t *testing.T) {
	inner := &scriptedTransport{fn: func(int, *Request) (*Response, error) {
		return nil, dterr.New(dterr.CodeBusy, "down")
	}}
	br := NewBreaker("ff", 2, time.Hour)
	tr := newTestTransport(inner, RetryPolicy{MaxAttempts: 1}, br)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := tr.Call(ctx, &Request{Op: OpQuery}); err == nil {
			t.Fatal("scripted failure returned nil error")
		}
	}
	before := inner.calls()
	if _, err := tr.Call(ctx, &Request{Op: OpQuery}); dterr.CodeOf(err) != dterr.CodeBusy {
		t.Fatalf("open-circuit error = %v, want busy", err)
	}
	if inner.calls() != before {
		t.Fatal("open breaker still forwarded the call")
	}
}

// TestOpCodesNamedAndClassified guards the op numbering: every code from
// OpPing to OpPull but the retired 3, 4 and 8 has a metric label of its
// own, nothing else has one (10, the last code once, is retired too), and
// exactly the reads and the ping are retried.
func TestOpCodesNamedAndClassified(t *testing.T) {
	inUse := []byte{OpPing, OpInsert, OpQuery, OpStats, OpCreateIndex, OpPull}
	idempotent := map[string]bool{"ping": true, "query": true, "stats": true, "pull": true}
	seen := map[string]bool{}
	for op := 0; op <= 255; op++ {
		name := opName(byte(op))
		known := slices.Contains(inUse, byte(op))
		if known == (name == "unknown") || known && seen[name] {
			t.Errorf("op %d is labelled %q", op, name)
		}
		seen[name] = true
		if IdempotentOp(byte(op)) != idempotent[name] {
			t.Errorf("op %d (%s): IdempotentOp = %v", op, name, IdempotentOp(byte(op)))
		}
	}
	if want := []byte{1, 2, 5, 6, 7, 9}; !slices.Equal(inUse, want) {
		t.Errorf("op codes in use %v, want %v", inUse, want)
	}
	if len(opNames) != len(inUse) {
		t.Errorf("%d op labels for the %d op codes in use", len(opNames), len(inUse))
	}
}
