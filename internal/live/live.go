// Package live is the streaming ingestion subsystem: it makes a Data Tamer
// pipeline continuously updatable after the initial batch Run. Writers hand
// the Ingester new web-text fragments and structured records at runtime;
// each write is appended to a CRC-framed write-ahead log and flushed before
// it is acknowledged, then queued for one applier goroutine. The applier
// takes everything queued as one batch — whatever arrived while the
// previous batch applied (group commit) — and drives the incremental hooks
// in internal/core (extract -> shard insert -> index maintenance ->
// incremental consolidation -> fused-view refresh).
//
// Queries stay fully available while batches apply: the fused view is an
// immutable snapshot swapped atomically on refresh, so readers observe the
// pre-batch or post-batch table — never an intermediate one — and the
// applier, not the serving path, pays the consolidation cost. Text inserts
// ride the same maintenance as batch ingest, keeping the instance store's
// inverted text index current for serve-time substring queries.
//
// Durability: an acknowledged write survives a process kill. The ingester
// directory is a store.Log — the one WAL + checkpoint-by-rename protocol —
// whose checkpoints hold the store snapshots and the fused view's members
// (core.Tamer.FusedMembers); recovery replays the WAL over the last
// checkpoint, fenced by sequence numbers so no event is applied twice, and
// a crash mid-checkpoint falls back to the previous one. Backpressure: two
// constant bounds, 1024 events and 64 MiB of payload, cap the acknowledged
// but unapplied writes. A writer past either bound waits before anything
// is logged, and gets a dterr.ErrBusy if its context ends first.
//
// Known limitations: checkpoints persist the document stores and the fused
// view's members — every translated, cleaned record in arrival order — so
// a restored view consolidates new records exactly as the uninterrupted one
// would. They do not persist the registry or the global-schema deltas
// produced by live record sources: after a recovery those sources
// re-integrate their attributes on the next write. Threshold-based match
// decisions are deterministic and re-derive identically; decisions that
// went to the simulated expert pool may resolve differently. Record
// identity is unaffected: live record IDs are stamped from WAL sequence
// numbers, which stay monotonic across restarts. Poison events —
// acknowledged writes whose apply fails deterministically — are dropped and
// counted (Stats.ApplyErrors during operation, Stats.ReplayErrors during
// recovery) rather than wedging the queue, and are fenced away by the next
// checkpoint. In cluster mode a checkpoint holds the fused view's members
// only: the nodes keep the remote shards' documents, durably or not. A
// coordinator crash (no clean Close) can then leave a WAL tail whose
// events some nodes already applied, making the replay at-least-once — a
// clean shutdown checkpoints first and is exact.
package live

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/dterr"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/record"
	"repro/internal/store"
)

// Fragment is one web-text fragment with its crawl URL.
type Fragment = datagen.Fragment

// ErrClosed is returned by writes against a closed ingester. It matches
// the public taxonomy: errors.Is(err, dterr.ErrClosed) holds too.
var ErrClosed error = dterr.New(dterr.CodeClosed, "live: ingester closed")

// Config names the ingester's directory and its durability: Dir and Fsync
// are its only fields. The queue's two bounds are the constants
// maxQueueEvents and maxQueueBytes.
type Config struct {
	// Dir holds the WAL and checkpoints. Required.
	Dir string
	// Fsync fsyncs the WAL on every append (power-failure durability;
	// default off: flushed to the OS, surviving process kill).
	Fsync bool
}

// The queue's bounds. Both count acknowledged-but-unapplied events: the
// queued ones and the batch being applied.
const (
	// maxQueueEvents bounds the number of such events.
	maxQueueEvents = 1024
	// maxQueueBytes bounds their total payload bytes, so many large bodies
	// cannot collectively exhaust memory within the event-count bound.
	maxQueueBytes = 64 << 20
)

// event is one acknowledged write awaiting apply.
type event struct {
	kind   byte
	size   int // encoded payload bytes, charged against maxQueueBytes
	frags  []Fragment
	source string
	recs   []*record.Record
}

// Ingester accepts live writes against a pipeline.
type Ingester struct {
	tamer *core.Tamer
	log   *store.Log

	// openCtx is the lifecycle context passed to Open. Cancelling it aborts
	// the ingester (see abortLocked); stopAbort unregisters that hook.
	openCtx   context.Context
	stopAbort func() bool

	// ingestMu serializes WAL append + enqueue so apply order matches log
	// order; Checkpoint holds it to stall writers during a snapshot.
	// replayErrors (events dropped during Open's recovery) is written only
	// before the ingester is shared; released (Close has run) only under
	// ingestMu.
	ingestMu     sync.Mutex
	replayErrors int
	released     bool

	// applier is the one apply goroutine; Close waits for it.
	applier sync.WaitGroup

	// mu guards the queue and the state below; cond is broadcast whenever
	// any of it changes.
	mu          sync.Mutex
	cond        *sync.Cond
	queue       []event // acknowledged, not yet taken by the applier
	pending     int     // queued plus in-flight events
	queuedBytes int64   // payload bytes of those events
	closed      bool    // writes are refused
	abortErr    error   // why the ingester aborted; nil while it has not
	applyErr    error   // most recent apply failure, surfaced in Stats

	textEvents, recordEvents   atomic.Int64
	fragments, records         atomic.Int64
	instances, entities        atomic.Int64
	batches, refreshes         atomic.Int64
	batchNanos, lastBatchNanos atomic.Int64
	applyErrors                atomic.Int64
}

// Open starts an ingester over t, recovering any state left in cfg.Dir: it
// loads the last checkpoint (when present), replays the WAL tail over it,
// re-checkpoints the recovered state, and begins a fresh WAL. The pipeline
// t should have completed its batch Run first — or, when cfg.Dir holds a
// checkpoint, only its ImportFTables stage: the checkpoint replaces the
// stores and the fused view's members.
//
// ctx bounds both the recovery work and the ingester's lifetime: cancelling
// it after Open returns stops the applier — events already queued are left
// unapplied and recovered from the WAL on the next Open.
func Open(ctx context.Context, t *core.Tamer, cfg Config) (*Ingester, error) {
	ing, err := open(ctx, t, cfg)
	if err != nil {
		return nil, err
	}
	ing.start()
	return ing, nil
}

// open recovers the ingester's state without starting its applier: writes
// are logged and queued, and stay queued until start.
func open(ctx context.Context, t *core.Tamer, cfg Config) (*Ingester, error) {
	if cfg.Dir == "" {
		return nil, dterr.New(dterr.CodeInvalidArgument, "live: Config.Dir is required")
	}
	ing := &Ingester{tamer: t, openCtx: ctx}
	ing.cond = sync.NewCond(&ing.mu)

	// Recovery: load the committed checkpoint, replay the WAL tail over it,
	// and (unless nothing was replayed) re-checkpoint so the WAL restarts
	// compact with sequence numbers continuing past everything ever logged.
	load := func(cpDir string) error {
		if err := t.RestoreStores(ctx, cpDir); err != nil {
			return err
		}
		members, err := loadMembers(filepath.Join(cpDir, membersName))
		if err != nil {
			return fmt.Errorf("live: loading members checkpoint: %w", err)
		}
		t.RestoreFused(members)
		return nil
	}
	// A replayed event applies as a batch of one. One that cannot be decoded
	// or is poison is counted and skipped rather than failing the open: one
	// bad event must not make every later startup fail.
	apply := func(_ uint64, kind byte, payload []byte) error {
		ev, err := decodeEvent(kind, payload)
		if err != nil {
			ing.replayErrors++
			return nil
		}
		poison, err := ing.applyEvents([]event{ev})
		ing.replayErrors += len(poison)
		return err
	}
	var err error
	ing.log, err = store.OpenLog(cfg.Dir, cfg.Fsync, load, apply, ing.checkpointWriter(ctx))
	if err != nil {
		return nil, fmt.Errorf("live: recovering %s: %w", cfg.Dir, err)
	}
	if _, err := t.RefreshFused(ctx); err != nil {
		ing.log.Close()
		return nil, fmt.Errorf("live: refreshing fused view after replay: %w", err)
	}
	// An earlier process over this directory served generations from its
	// own floor up, at most one step per event it applied, fewer than 2^32.
	// It could change data only by applying events, and a process that
	// applied any left a checkpoint behind it — its Close's, or the one
	// this recovery took after replaying them — so the epoch is above
	// that process's, and so is the floor. Without such events the
	// directory holds what the earlier process served, at its floor.
	t.RaiseGeneration(ing.log.Stats().Epoch << 32)
	ing.stopAbort = context.AfterFunc(ctx, func() {
		ing.mu.Lock()
		ing.abortLocked(dterr.FromContext(ctx.Err()))
		ing.mu.Unlock()
	})
	return ing, nil
}

// start runs the applier.
func (ing *Ingester) start() {
	ing.applier.Add(1)
	go ing.applyLoop()
}

// IngestText durably logs a batch of web-text fragments and queues them
// for apply. When it returns nil the write is acknowledged: it survives a
// process kill even if it has not been applied yet. Cancelling ctx while
// the write waits on backpressure abandons it with a busy-classified
// error; once acknowledged the write is never abandoned.
func (ing *Ingester) IngestText(ctx context.Context, frags []Fragment) error {
	if len(frags) == 0 {
		return nil
	}
	ing.ingestMu.Lock()
	defer ing.ingestMu.Unlock()
	if err := ing.enqueueLocked(ctx, event{kind: evText, frags: frags}, encodeText(frags)); err != nil {
		return err
	}
	ing.textEvents.Add(1)
	return nil
}

// IngestRecords durably logs a batch of structured records from one source
// and queues them for apply. Records without an ID are stamped with one
// derived from the WAL sequence number, so identity survives crash
// recovery and cannot collide with records ingested after a restart.
func (ing *Ingester) IngestRecords(ctx context.Context, source string, recs []*record.Record) error {
	if source == "" {
		return dterr.New(dterr.CodeInvalidArgument, "live: ingest records: empty source name")
	}
	if len(recs) == 0 {
		return nil
	}
	ing.ingestMu.Lock()
	defer ing.ingestMu.Unlock()
	// All appends hold ingestMu, so the next sequence number is stable here.
	seq := ing.log.NextSeq()
	var stamped []*record.Record
	for i, r := range recs {
		if r.ID == "" {
			r.ID = fmt.Sprintf("%s#w%d-%d", source, seq, i)
			stamped = append(stamped, r)
		}
	}
	if err := ing.enqueueLocked(ctx, event{kind: evRecords, source: source, recs: recs}, encodeRecords(source, recs)); err != nil {
		// A failed append does not consume the sequence number; clear the
		// IDs stamped from it so a retry cannot collide with a later write.
		for _, r := range stamped {
			r.ID = ""
		}
		return err
	}
	ing.recordEvents.Add(1)
	return nil
}

// enqueueLocked waits for room under both bounds, appends to the WAL (the
// acknowledgment point) and queues the event. The wait comes before the
// append, so a caller whose context ends while waiting has logged nothing
// and the busy classification is accurate. Waiting cannot stall forever:
// the bounds only fill while events are pending, and the applier, running
// until Close (which needs ingestMu, held here), drains them. Must hold
// ingestMu.
func (ing *Ingester) enqueueLocked(ctx context.Context, ev event, payload []byte) error {
	ev.size = len(payload)
	ing.mu.Lock()
	for !ing.closed && ing.pending > 0 && (ing.pending >= maxQueueEvents || ing.queuedBytes >= maxQueueBytes) {
		if err := ctx.Err(); err != nil {
			ing.mu.Unlock()
			return dterr.Wrapf(dterr.CodeBusy, dterr.FromContext(err), "live: write abandoned under backpressure")
		}
		ing.waitLocked(ctx)
	}
	closed := ing.closed
	ing.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if _, err := ing.log.Append(ev.kind, payload); err != nil {
		return err
	}
	ing.mu.Lock()
	ing.queue = append(ing.queue, ev)
	ing.pending++
	ing.queuedBytes += int64(ev.size)
	ing.cond.Broadcast()
	ing.mu.Unlock()
	return nil
}

// waitLocked is cond.Wait that also returns when ctx ends. Must hold ing.mu.
func (ing *Ingester) waitLocked(ctx context.Context) {
	stop := context.AfterFunc(ctx, func() {
		ing.mu.Lock()
		ing.cond.Broadcast()
		ing.mu.Unlock()
	})
	ing.cond.Wait()
	stop()
}

// abortLocked stops the ingester for good, after its open context ended or
// a batch failed to apply: writes are refused, Flush fails closed, the
// applier returns, and Close skips its checkpoint, so the events left
// unapplied stay in the WAL for the next Open's replay. Must hold ing.mu.
func (ing *Ingester) abortLocked(cause error) {
	if ing.abortErr == nil {
		ing.abortErr = cause
	}
	if ing.applyErr == nil {
		ing.applyErr = cause
	}
	ing.closed = true
	ing.cond.Broadcast()
}

// applyLoop is the applier. It waits for a non-empty queue and applies all
// of it as one batch, so a batch is whatever arrived while the previous one
// applied (group commit). It returns once the ingester is closed and the
// queue is empty, or at once when the ingester aborts.
func (ing *Ingester) applyLoop() {
	defer ing.applier.Done()
	ing.mu.Lock()
	defer ing.mu.Unlock()
	for {
		for len(ing.queue) == 0 && !ing.closed {
			ing.cond.Wait()
		}
		// The open context may have ended before the hook that aborts on it
		// ran; a batch taken now would apply after the cancellation.
		if err := ing.openCtx.Err(); err != nil {
			ing.abortLocked(dterr.FromContext(err))
		}
		if ing.abortErr != nil || len(ing.queue) == 0 {
			return
		}
		batch := ing.queue
		ing.queue = nil
		ing.mu.Unlock()
		ing.applyBatch(batch)
		ing.mu.Lock()
	}
}

// applyBatch pushes one batch through applyEvents, then refreshes the fused
// view once if any record event applied.
func (ing *Ingester) applyBatch(batch []event) {
	start := time.Now()
	poison, err := ing.applyEvents(batch)
	if len(poison) > 0 {
		ing.mu.Lock()
		ing.applyErr = poison[len(poison)-1]
		ing.mu.Unlock()
		ing.applyErrors.Add(int64(len(poison)))
	}
	if err != nil {
		// The events stay in the WAL for the next Open. Abort before this
		// batch is unaccounted below, so a Flush waiter woken by that
		// cannot read pending==0 and report a clean flush for writes
		// that were never applied.
		ing.abort(err)
	}
	var bytes int64
	recordEvents := 0
	for _, ev := range batch {
		bytes += int64(ev.size)
		if ev.kind == evRecords {
			recordEvents++
		}
	}
	if err == nil && recordEvents > len(poison) {
		if _, err := ing.tamer.RefreshFused(ing.openCtx); err == nil {
			ing.refreshes.Add(1)
		}
	}
	elapsed := time.Since(start).Nanoseconds()
	ing.batches.Add(1)
	ing.batchNanos.Add(elapsed)
	ing.lastBatchNanos.Store(elapsed)
	ing.mu.Lock()
	ing.pending -= len(batch)
	ing.queuedBytes -= bytes
	ing.cond.Broadcast()
	ing.mu.Unlock()
}

// applyEvents applies evs through the incremental pipeline, the applier's
// batches and the replayed WAL events alike: the text of every event in
// one parse-pool pass, then the record events in log order. A failed text
// apply, or the open context ending, is returned as fatal at once. A
// record event that fails otherwise is poison — it would fail identically
// on every retry and on replay — and comes back in poison for the caller
// to count, so it is dropped rather than wedging the queue.
func (ing *Ingester) applyEvents(evs []event) (poison []error, err error) {
	var frags []Fragment
	for _, ev := range evs {
		if ev.kind == evText {
			frags = append(frags, ev.frags...)
		}
	}
	if len(frags) > 0 {
		ni, ne, err := ing.tamer.ApplyFragments(ing.openCtx, frags, 0)
		if err != nil {
			return nil, dterr.FromContext(err)
		}
		ing.instances.Add(int64(ni))
		ing.entities.Add(int64(ne))
		ing.fragments.Add(int64(len(frags)))
	}
	for _, ev := range evs {
		if ev.kind != evRecords {
			continue
		}
		if _, err := ing.tamer.ApplyRecords(ing.openCtx, ev.source, ev.recs); err != nil {
			if cerr := ing.openCtx.Err(); cerr != nil {
				return poison, dterr.FromContext(cerr)
			}
			poison = append(poison, err)
			continue
		}
		ing.records.Add(int64(len(ev.recs)))
	}
	return poison, nil
}

// abort is abortLocked for a caller not holding ing.mu.
func (ing *Ingester) abort(cause error) {
	ing.mu.Lock()
	ing.abortLocked(cause)
	ing.mu.Unlock()
}

// Flush blocks until every acknowledged write has been applied (or dropped
// as poison — see Stats.ApplyErrors), so queries issued after it returns
// observe all prior ingests. Cancelling ctx abandons the wait — the queued
// writes still apply in the background. Once the ingester has aborted,
// Flush fails closed.
func (ing *Ingester) Flush(ctx context.Context) error {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	for ing.pending > 0 && ing.abortErr == nil {
		if err := ctx.Err(); err != nil {
			return dterr.FromContext(err)
		}
		ing.waitLocked(ctx)
	}
	return dterr.Wrap(dterr.CodeClosed, ing.abortErr)
}

// Checkpoint stalls writers, drains the queue, snapshots the stores and
// fused view, and truncates the WAL. Recovery after a checkpoint replays
// only events logged after it.
func (ing *Ingester) Checkpoint(ctx context.Context) error {
	ing.ingestMu.Lock()
	defer ing.ingestMu.Unlock()
	if err := ing.Flush(ctx); err != nil {
		return err
	}
	return ing.log.Checkpoint(ing.log.NextSeq()-1, ing.checkpointWriter(ctx))
}

// checkpointWriter is the owner callback of the ingester's store.Log: it
// fills one checkpoint directory with the store snapshots and the fused
// view's members. In cluster mode it writes the members alone: the nodes
// own the shards.
func (ing *Ingester) checkpointWriter(ctx context.Context) func(cpDir string) error {
	return func(cpDir string) error {
		if err := ing.tamer.SnapshotStores(ctx, cpDir); err != nil {
			return fmt.Errorf("live: checkpoint stores: %w", err)
		}
		if err := saveMembers(filepath.Join(cpDir, membersName), ing.tamer.FusedMembers()); err != nil {
			return fmt.Errorf("live: checkpoint fused members: %w", err)
		}
		return nil
	}
}

// Close applies every acknowledged write, checkpoints, and releases the
// WAL. Further writes return ErrClosed, and a second Close returns nil. If
// the ingester aborted first (or aborts meanwhile), Close skips the
// checkpoint so the WAL, still holding the unapplied acknowledged writes,
// stays authoritative for the next Open.
func (ing *Ingester) Close() error {
	ing.ingestMu.Lock()
	defer ing.ingestMu.Unlock()
	if ing.released {
		return nil
	}
	ing.released = true
	ing.mu.Lock()
	ing.closed = true
	ing.cond.Broadcast()
	ing.mu.Unlock()
	ing.applier.Wait()
	ing.stopAbort()
	// Checkpointing past an unapplied event would fence it away: an abort
	// leaves events queued, and so does an ingester whose applier never ran.
	ing.mu.Lock()
	unapplied := ing.abortErr != nil || ing.pending > 0
	ing.mu.Unlock()
	if unapplied {
		return ing.log.Close()
	}
	err := ing.log.Checkpoint(ing.log.NextSeq()-1, ing.checkpointWriter(context.Background()))
	if cerr := ing.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats is a point-in-time snapshot of the ingester, the /live/stats view.
type Stats struct {
	QueueDepth    int   `json:"queue_depth"`    // events queued, not yet taken by the applier
	QueueCapacity int   `json:"queue_capacity"` // the event-count bound
	Pending       int   `json:"pending_events"` // queued plus in-flight events
	QueuedBytes   int64 `json:"queued_bytes"`   // payload bytes of the pending events

	TextEvents   int64 `json:"text_events"`
	RecordEvents int64 `json:"record_events"`
	Fragments    int64 `json:"fragments_ingested"`
	Records      int64 `json:"records_ingested"`
	Instances    int64 `json:"instances_inserted"`
	Entities     int64 `json:"entities_inserted"`

	Batches        int64   `json:"batches"`
	AvgBatchMs     float64 `json:"avg_batch_ms"`
	LastBatchMs    float64 `json:"last_batch_ms"`
	FusedRefreshes int64   `json:"fused_refreshes"`
	FusedDirty     bool    `json:"fused_dirty"`
	ApplyErrors    int64   `json:"apply_errors"`

	WALSizeBytes    int64  `json:"wal_size_bytes"`
	WALEvents       int64  `json:"wal_events"`
	NextSeq         uint64 `json:"next_seq"`
	ReplayApplied   int    `json:"replay_applied"`
	ReplaySkipped   int    `json:"replay_skipped"`
	ReplayErrors    int    `json:"replay_errors"`
	ReplayTruncated bool   `json:"replay_truncated"`

	Closed    bool   `json:"closed"`
	LastError string `json:"last_error,omitempty"`
}

// Stats snapshots the ingester's counters.
func (ing *Ingester) Stats() Stats {
	ing.mu.Lock()
	depth, pending := len(ing.queue), ing.pending
	queuedBytes := ing.queuedBytes
	closed := ing.closed
	applyErr := ing.applyErr
	ing.mu.Unlock()
	wal, replay := ing.log.Stats(), ing.log.Recovered()
	s := Stats{
		QueueDepth:      depth,
		QueueCapacity:   maxQueueEvents,
		QueuedBytes:     queuedBytes,
		Pending:         pending,
		TextEvents:      ing.textEvents.Load(),
		RecordEvents:    ing.recordEvents.Load(),
		Fragments:       ing.fragments.Load(),
		Records:         ing.records.Load(),
		Instances:       ing.instances.Load(),
		Entities:        ing.entities.Load(),
		Batches:         ing.batches.Load(),
		FusedRefreshes:  ing.refreshes.Load(),
		FusedDirty:      ing.tamer.FusedDirty(),
		ApplyErrors:     ing.applyErrors.Load(),
		WALSizeBytes:    wal.WALSizeBytes,
		WALEvents:       wal.WALEvents,
		NextSeq:         wal.NextSeq,
		ReplayApplied:   replay.Applied,
		ReplaySkipped:   replay.Skipped,
		ReplayErrors:    ing.replayErrors,
		ReplayTruncated: replay.Truncated,
		Closed:          closed,
	}
	if n := s.Batches; n > 0 {
		s.AvgBatchMs = float64(ing.batchNanos.Load()) / float64(n) / 1e6
	}
	s.LastBatchMs = float64(ing.lastBatchNanos.Load()) / 1e6
	if applyErr != nil {
		s.LastError = applyErr.Error()
	}
	return s
}
