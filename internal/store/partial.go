package store

import (
	"context"
	"strconv"
	"sync"

	"repro/dterr"
)

// PartialReads collects the shards a fan-out read could not reach. When a
// request opts in (WithPartialReads), the sharded router absorbs
// availability failures — CodeBusy / CodeUnavailable, the shapes a dead
// or partitioned node produces — records the missing (namespace, shard)
// pair here, and lets the surviving shards answer. The serving layer
// turns a non-zero Missing count into an explicit degraded response
// instead of a failed one. Safe for concurrent use: one tracker is
// shared by every shard goroutine of a request.
type PartialReads struct {
	mu      sync.Mutex
	missing map[string]struct{}
}

// partialKey identifies the context entry; the tracker pointer is the
// value.
type partialKeyType struct{}

var partialKey partialKeyType

// WithPartialReads derives a context whose fan-out reads degrade instead
// of failing when individual shards are unreachable, and returns the
// tracker that records what went missing.
func WithPartialReads(ctx context.Context) (context.Context, *PartialReads) {
	pr := &PartialReads{missing: make(map[string]struct{})}
	return context.WithValue(ctx, partialKey, pr), pr
}

// record notes one unreachable shard.
func (p *PartialReads) record(ns string, shard int) {
	p.mu.Lock()
	p.missing[ns+"/"+strconv.Itoa(shard)] = struct{}{}
	p.mu.Unlock()
}

// Missing reports how many distinct (namespace, shard) pairs failed to
// serve this request so far.
func (p *PartialReads) Missing() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.missing)
}

// AbsorbShardError decides whether a per-shard read failure should
// degrade the request rather than fail it: true when the request carries
// a PartialReads tracker and the error is an availability failure
// (CodeBusy or CodeUnavailable — a dead node, an open breaker, an
// exhausted retry budget). The missing shard is recorded on the tracker.
// Cancellation, deadline, and data errors always fail the request, and
// writes must never absorb.
func AbsorbShardError(ctx context.Context, ns string, shard int, err error) bool {
	if err == nil {
		return false
	}
	// No tracker: the caller wants strict all-shards-or-error reads.
	pr, _ := ctx.Value(partialKey).(*PartialReads)
	if pr == nil {
		return false
	}
	switch dterr.CodeOf(err) {
	case dterr.CodeBusy, dterr.CodeUnavailable:
	default:
		return false
	}
	pr.record(ns, shard)
	return true
}
