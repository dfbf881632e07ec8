package cluster

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"repro/dterr"
	"repro/internal/obs"
)

// Resilience instrumentation. The breaker gauge publishes the current
// state per node (0 closed, 1 half-open, 2 open); transitions and retry
// outcomes are counters so dashboards can rate() node flaps and retry
// pressure. Node label values come from the static cluster config, so
// their cardinality is bounded by membership.
var (
	breakerState = obs.Default().Gauge("dt_cluster_breaker_state",
		"Circuit breaker state per node: 0 closed, 1 half-open, 2 open.", "node")
	breakerTransitions = obs.Default().Counter("dt_cluster_breaker_transitions_total",
		"Circuit breaker state transitions, by node and target state.", "node", "to")
	retriesTotal = obs.Default().Counter("dt_cluster_retries_total",
		"Transport retry attempts by wire op and outcome (retry, recovered, exhausted).", "op", "outcome")
)

// RetryPolicy bounds how the resilient transport re-attempts idempotent
// calls: at most MaxAttempts tries, exponential backoff doubling from
// BaseBackoff up to MaxBackoff, each sleep jittered into [d/2, d] so a
// fan-out of coordinators does not retry in lockstep against a node that
// just came back.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (first call included).
	// Values < 1 behave as 1: no retries.
	MaxAttempts int
	// BaseBackoff is the pre-jitter sleep before the first retry.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth.
	MaxBackoff time.Duration
}

// DefaultRetryPolicy matches the transport defaults: three attempts, 25ms
// doubling to 250ms.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseBackoff: 25 * time.Millisecond, MaxBackoff: 250 * time.Millisecond}
}

// attempts normalizes MaxAttempts.
func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// backoff returns the jittered sleep before retry number retry (1-based).
// The un-jittered duration is BaseBackoff << (retry-1), capped at
// MaxBackoff; the jitter draws uniformly from [d/2, d].
func (p RetryPolicy) backoff(retry int, rng *rand.Rand) time.Duration {
	d := p.BaseBackoff
	if d <= 0 {
		d = 25 * time.Millisecond
	}
	for i := 1; i < retry; i++ {
		d *= 2
		if p.MaxBackoff > 0 && d >= p.MaxBackoff {
			d = p.MaxBackoff
			break
		}
	}
	if p.MaxBackoff > 0 && d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(rng.Int63n(int64(d-half)+1))
}

// attemptCtx carves a per-attempt deadline out of the caller's remaining
// budget: with attemptsLeft tries still possible, one attempt may spend
// remaining/attemptsLeft, so retries never push past the caller's
// deadline. Without a parent deadline the context passes through and the
// transport's own default timeout bounds each attempt.
func attemptCtx(ctx context.Context, attemptsLeft int) (context.Context, context.CancelFunc) {
	deadline, ok := ctx.Deadline()
	if !ok || attemptsLeft <= 1 {
		return ctx, func() {}
	}
	remaining := time.Until(deadline)
	if remaining <= 0 {
		return ctx, func() {}
	}
	return context.WithDeadline(ctx, time.Now().Add(remaining/time.Duration(attemptsLeft)))
}

// IdempotentOp reports whether a wire op is safe to re-send when the
// first attempt may have been applied: reads and probes. Mutations are
// never retried — a duplicated insert is data corruption, not resilience.
func IdempotentOp(op byte) bool {
	switch op {
	case OpPing, OpQuery, OpStats, OpPull:
		return true
	}
	return false
}

// Breaker states, also the gauge values published per node.
const (
	breakerClosed   = 0
	breakerHalfOpen = 1
	breakerOpen     = 2
)

// Breaker is a per-node circuit breaker. Consecutive transport failures
// beyond the threshold open it; while open every call is rejected
// immediately (no connection attempt, no retry loop burning the caller's
// deadline against a dead node). After the cooldown one probe request is
// let through half-open: success closes the breaker, failure re-opens it
// for another cooldown.
type Breaker struct {
	node      string
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	mu       sync.Mutex
	state    int
	fails    int
	openedAt time.Time
	probing  bool
}

// NewBreaker builds a breaker for one node. threshold <= 0 selects 5
// consecutive failures, cooldown <= 0 selects 500ms.
func NewBreaker(node string, threshold int, cooldown time.Duration) *Breaker {
	if threshold <= 0 {
		threshold = 5
	}
	if cooldown <= 0 {
		cooldown = 500 * time.Millisecond
	}
	b := &Breaker{node: node, threshold: threshold, cooldown: cooldown, now: time.Now}
	breakerState.With(node).Set(breakerClosed)
	return b
}

// setState transitions and publishes; callers hold b.mu.
func (b *Breaker) setStateLocked(state int) {
	if b.state == state {
		return
	}
	b.state = state
	breakerState.With(b.node).Set(int64(state))
	var to string
	switch state {
	case breakerOpen:
		to = "open"
	case breakerHalfOpen:
		to = "half_open"
	default:
		to = "closed"
	}
	breakerTransitions.With(b.node, to).Inc()
}

// Allow reports whether a call may proceed now. In the half-open window
// only one probe is admitted at a time; everyone else is rejected until
// the probe settles.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.setStateLocked(breakerHalfOpen)
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// OnSuccess records a successful exchange, closing the breaker.
func (b *Breaker) OnSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	b.probing = false
	b.setStateLocked(breakerClosed)
}

// OnFailure records a failed exchange. In half-open the probe failure
// re-opens immediately; closed trips open after threshold consecutive
// failures.
func (b *Breaker) OnFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.probing = false
		b.openedAt = b.now()
		b.setStateLocked(breakerOpen)
		return
	}
	b.fails++
	if b.state == breakerClosed && b.fails >= b.threshold {
		b.openedAt = b.now()
		b.setStateLocked(breakerOpen)
	}
}

// State returns the current state constant (0 closed, 1 half-open,
// 2 open) — readiness introspection, not part of the call path.
func (b *Breaker) State() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// StateName renders the current state for readiness documents:
// "closed", "half_open", or "open".
func (b *Breaker) StateName() string {
	switch b.State() {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half_open"
	default:
		return "closed"
	}
}

// ResilientTransport wraps an inner Transport with the retry policy and
// a per-node circuit breaker. Reads (IdempotentOp) are retried with
// jittered exponential backoff inside the caller's deadline; writes get
// exactly one attempt. Safe for concurrent use.
type ResilientTransport struct {
	inner   Transport
	node    string
	policy  RetryPolicy
	breaker *Breaker

	// sleep is the backoff primitive, injectable for tests; the default
	// honors ctx cancellation.
	sleep func(ctx context.Context, d time.Duration) error

	mu  sync.Mutex
	rng *rand.Rand
}

// NewResilientTransport wraps inner for the named node. seed fixes the
// jitter sequence; pass 0 for a time-seeded source in production.
func NewResilientTransport(node string, inner Transport, policy RetryPolicy, breaker *Breaker, seed int64) *ResilientTransport {
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	if breaker == nil {
		breaker = NewBreaker(node, 0, 0)
	}
	return &ResilientTransport{
		inner:   inner,
		node:    node,
		policy:  policy,
		breaker: breaker,
		sleep:   sleepCtx,
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// sleepCtx sleeps d or returns early with the context error.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return dterr.FromContext(ctx.Err())
	case <-t.C:
		return nil
	}
}

// jitter draws one backoff duration; the rng is not goroutine-safe.
func (t *ResilientTransport) jitter(retry int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.policy.backoff(retry, t.rng)
}

// retryable reports whether a transport error is worth another attempt.
// CodeBusy covers connection-level failures (refused, reset, EOF) and
// injected unavailability; an attempt-level deadline is retryable as long
// as the caller's own context is still alive. Cancellation and
// argument/internal errors are terminal.
func retryable(ctx context.Context, err error) bool {
	if ctx.Err() != nil {
		return false
	}
	switch dterr.CodeOf(err) {
	case dterr.CodeBusy, dterr.CodeUnavailable, dterr.CodeDeadlineExceeded:
		return true
	}
	return false
}

// Call implements Transport.
func (t *ResilientTransport) Call(ctx context.Context, req *Request) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, dterr.FromContext(err)
	}
	if !t.breaker.Allow() {
		return nil, dterr.Newf(dterr.CodeBusy, "cluster: node %s circuit open", t.node)
	}
	attempts := 1
	if IdempotentOp(req.Op) {
		attempts = t.policy.attempts()
	}
	op := opName(req.Op)
	var lastErr error
	retried := false
	for attempt := 1; attempt <= attempts; attempt++ {
		actx, cancel := attemptCtx(ctx, attempts-attempt+1)
		resp, err := t.inner.Call(actx, req)
		cancel()
		if err == nil {
			t.breaker.OnSuccess()
			if attempt > 1 {
				retriesTotal.With(op, "recovered").Inc()
			}
			return resp, nil
		}
		t.breaker.OnFailure()
		lastErr = err
		if attempt == attempts || !retryable(ctx, err) {
			break
		}
		// Re-check the breaker between attempts: a concurrent failure
		// burst may have opened it, and hammering an open node from
		// inside a retry loop defeats the point of the breaker.
		retriesTotal.With(op, "retry").Inc()
		retried = true
		if err := t.sleep(ctx, t.jitter(attempt)); err != nil {
			return nil, err
		}
		if !t.breaker.Allow() {
			return nil, dterr.Newf(dterr.CodeBusy, "cluster: node %s circuit open", t.node)
		}
	}
	if retried {
		retriesTotal.With(op, "exhausted").Inc()
	}
	if ctx.Err() != nil {
		return nil, dterr.FromContext(ctx.Err())
	}
	return nil, lastErr
}

// Close implements Transport.
func (t *ResilientTransport) Close() error { return t.inner.Close() }
