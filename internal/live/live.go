// Package live is the streaming ingestion subsystem: it makes a Data Tamer
// pipeline continuously updatable after the initial batch Run. Writers hand
// the Ingester new web-text fragments and structured records at runtime;
// each write is appended to a CRC-framed write-ahead log and flushed before
// it is acknowledged, then applied asynchronously by a batching worker that
// drives the incremental hooks in internal/core (extract -> shard insert ->
// index maintenance -> incremental consolidation -> fused-view refresh).
//
// Queries stay fully available while batches apply: the fused view is an
// immutable snapshot swapped atomically on refresh, so readers observe the
// pre-batch or post-batch table — never an intermediate one — and the
// apply worker, not the serving path, pays the consolidation cost. Text
// inserts ride the same maintenance as batch ingest, keeping the instance
// store's inverted text index current for serve-time substring queries.
//
// Durability: an acknowledged write survives a process kill. The ingester
// directory is a store.Log — the one WAL + checkpoint-by-rename protocol —
// whose checkpoints hold the store snapshots and the fused view's members
// (core.Tamer.FusedMembers); recovery replays the WAL over the last
// checkpoint, fenced by sequence numbers so no event is applied twice, and
// a crash mid-checkpoint falls back to the previous one. Backpressure: the
// apply queue is bounded, so writers block once the pipeline falls behind.
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
// checkpoint. In cluster mode the checkpoint fence delegates shard
// snapshots to the nodes' own data directories; a coordinator crash (no
// clean Close) can then leave a WAL tail whose events some nodes already
// applied and persisted, making the replay at-least-once — a clean shutdown
// checkpoints first and is exact.
package live

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
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

// Config sizes the ingester.
type Config struct {
	// Dir holds the WAL and checkpoints. Required.
	Dir string
	// BatchSize caps events per apply batch (default 64).
	BatchSize int
	// FlushInterval bounds how long a partial batch may wait (default 200ms).
	FlushInterval time.Duration
	// Workers is the parse worker count per batch (default: one per CPU).
	Workers int
	// QueueDepth bounds acknowledged-but-unapplied events; writers block
	// beyond it (default 1024).
	QueueDepth int
	// MaxQueueBytes bounds the total payload bytes of acknowledged-but-
	// unapplied events, so many large bodies cannot collectively exhaust
	// memory within the event-count bound (default 64 MB).
	MaxQueueBytes int64
	// Fsync fsyncs the WAL on every append (power-failure durability;
	// default off: flushed to the OS, surviving process kill).
	Fsync bool
}

func (c Config) withDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 200 * time.Millisecond
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.MaxQueueBytes <= 0 {
		c.MaxQueueBytes = 64 << 20
	}
	return c
}

// event is one acknowledged write awaiting apply.
type event struct {
	kind   byte
	size   int // encoded payload bytes, charged against MaxQueueBytes
	frags  []Fragment
	source string
	recs   []*record.Record
}

// Ingester accepts live writes against a pipeline.
type Ingester struct {
	cfg   Config
	tamer *core.Tamer
	log   *store.Log

	// openCtx is the lifecycle context passed to Open. Cancelling it stops
	// the applier loop: remaining queued events are released unapplied (they
	// stay in the WAL for the next Open's replay) and further writes fail.
	openCtx context.Context

	// ingestMu serializes WAL append + enqueue so apply order matches log
	// order; Checkpoint holds it to stall writers during a snapshot.
	// replayErrors (events dropped during Open's recovery) is written only
	// before the ingester is shared.
	ingestMu     sync.Mutex
	replayErrors int

	queue   chan event
	flushCh chan struct{}
	done    chan struct{}
	wg      sync.WaitGroup

	mu          sync.Mutex
	cond        *sync.Cond
	pending     int   // acked events not yet applied
	queuedBytes int64 // payload bytes of those events
	closed      bool
	aborted     bool  // openCtx cancelled with events still queued; skip the close checkpoint
	applyErr    error // most recent apply failure, surfaced in Stats

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
// t should have completed its batch Run (or LoadStores) first.
//
// ctx bounds both the recovery work and the ingester's lifetime: cancelling
// it after Open returns stops the apply workers — events already queued are
// released unapplied and recovered from the WAL on the next Open.
func Open(ctx context.Context, t *core.Tamer, cfg Config) (*Ingester, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, dterr.New(dterr.CodeInvalidArgument, "live: Config.Dir is required")
	}
	ing := &Ingester{
		cfg:     cfg,
		tamer:   t,
		openCtx: ctx,
		queue:   make(chan event, cfg.QueueDepth),
		flushCh: make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	ing.cond = sync.NewCond(&ing.mu)

	// Recovery: load the committed checkpoint, replay the WAL tail over it,
	// and (unless nothing was replayed) re-checkpoint so the WAL restarts
	// compact with sequence numbers continuing past everything ever logged.
	// In cluster mode the checkpoint delegates to the nodes' own data
	// directories; nodes running without -data-dir answer unavailable,
	// which store.OpenLog tolerates by committing nothing.
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
	apply := func(_ uint64, kind byte, payload []byte) error { return ing.applyReplayed(kind, payload) }
	var err error
	ing.log, err = store.OpenLog(cfg.Dir, cfg.Fsync, load, apply, ing.checkpointWriter(ctx))
	if err != nil {
		return nil, fmt.Errorf("live: recovering %s: %w", cfg.Dir, err)
	}
	if _, err := t.RefreshFused(ctx); err != nil {
		ing.log.Close()
		return nil, fmt.Errorf("live: refreshing fused view after replay: %w", err)
	}

	ing.wg.Add(1)
	go ing.applierLoop()
	return ing, nil
}

// applyReplayed applies one recovered WAL event synchronously during Open.
// A poisoned event — undecodable, or rejected by the apply hooks — is
// counted and skipped rather than returned, mirroring the live path (which
// records the error and keeps going): one bad event must not make every
// subsequent startup fail.
func (ing *Ingester) applyReplayed(kind byte, payload []byte) error {
	switch kind {
	case evText:
		frags, err := decodeText(payload)
		if err != nil {
			ing.replayErrors++
			return nil
		}
		ni, ne, err := ing.tamer.ApplyFragments(ing.openCtx, frags, ing.cfg.Workers)
		if err != nil {
			// Cancellation mid-recovery aborts Open itself; surface it.
			return err
		}
		ing.instances.Add(int64(ni))
		ing.entities.Add(int64(ne))
		ing.fragments.Add(int64(len(frags)))
	case evRecords:
		source, recs, err := decodeRecords(payload)
		if err != nil {
			ing.replayErrors++
			return nil
		}
		if _, err := ing.tamer.ApplyRecords(ing.openCtx, source, recs); err != nil {
			if cerr := ing.openCtx.Err(); cerr != nil {
				return dterr.FromContext(cerr)
			}
			ing.replayErrors++
			return nil
		}
		ing.records.Add(int64(len(recs)))
	default:
		ing.replayErrors++
	}
	return nil
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
	if err := ing.enqueue(ctx, event{kind: evText, frags: frags}, encodeText(frags)); err != nil {
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

func (ing *Ingester) enqueue(ctx context.Context, ev event, payload []byte) error {
	ing.ingestMu.Lock()
	defer ing.ingestMu.Unlock()
	return ing.enqueueLocked(ctx, ev, payload)
}

// enqueueLocked appends to the WAL (the acknowledgment point) and hands the
// event to the applier. Must hold ingestMu.
func (ing *Ingester) enqueueLocked(ctx context.Context, ev event, payload []byte) error {
	ev.size = len(payload)
	ing.mu.Lock()
	if ing.closed {
		ing.mu.Unlock()
		return ErrClosed
	}
	// Byte-budget backpressure on top of the event-count bound. Waiting
	// cannot stall forever: the budget only fills while events are
	// pending, and the applier (alive until Close, which needs ingestMu —
	// held here) drains them and broadcasts. A caller whose context ends
	// while waiting gives up before the write is logged, so nothing is
	// acknowledged and the busy classification is accurate.
	for ing.queuedBytes >= ing.cfg.MaxQueueBytes && ing.pending > 0 {
		if err := ctx.Err(); err != nil {
			ing.mu.Unlock()
			return dterr.Wrapf(dterr.CodeBusy, dterr.FromContext(err), "live: write abandoned under backpressure")
		}
		if ing.closed {
			ing.mu.Unlock()
			return ErrClosed
		}
		ing.waitLocked(ctx)
	}
	ing.pending++
	ing.queuedBytes += int64(ev.size)
	ing.mu.Unlock()
	if _, err := ing.log.Append(ev.kind, payload); err != nil {
		ing.unaccount(1, int64(ev.size))
		return err
	}
	// A plain blocking send cannot deadlock, for the same reason waiting
	// on the byte budget cannot; the write is already durable at this
	// point, so it is handed to the applier regardless of ctx.
	ing.queue <- ev
	return nil
}

// markAborted records that the open context ended with work still queued:
// writes are rejected from here on, and Flush reports failure instead of
// a clean drain. Idempotent.
func (ing *Ingester) markAborted() {
	ing.mu.Lock()
	ing.closed = true
	ing.aborted = true
	if ing.applyErr == nil {
		ing.applyErr = dterr.FromContext(ing.openCtx.Err())
	}
	ing.mu.Unlock()
}

// waitLocked is cond.Wait with a context wake-up: a helper goroutine
// broadcasts when ctx ends so the waiter can observe the cancellation.
// Must hold ing.mu.
func (ing *Ingester) waitLocked(ctx context.Context) {
	done := ctx.Done()
	if done == nil {
		ing.cond.Wait()
		return
	}
	stop := make(chan struct{})
	go func() {
		select {
		case <-done:
			ing.mu.Lock()
			ing.cond.Broadcast()
			ing.mu.Unlock()
		case <-stop:
		}
	}()
	ing.cond.Wait()
	close(stop)
}

// unaccount releases n events and b payload bytes from the pending
// accounting and wakes Flush and backpressure waiters.
func (ing *Ingester) unaccount(n int, b int64) {
	ing.mu.Lock()
	ing.pending -= n
	ing.queuedBytes -= b
	ing.cond.Broadcast()
	ing.mu.Unlock()
}

// applierLoop drains the queue into batches and applies them. Cancelling
// the open context stops the loop: the queue is drained without applying
// (released events stay durable in the WAL for the next Open's replay) and
// further writes observe the closed state.
func (ing *Ingester) applierLoop() {
	defer ing.wg.Done()
	timer := time.NewTimer(ing.cfg.FlushInterval)
	defer timer.Stop()
	var batch []event
	for {
		// Priority check: select picks ready cases at random, so without
		// this a concurrent flush signal could win over the cancellation
		// and apply one more batch.
		if ing.openCtx.Err() != nil {
			ing.abort(ing.drain(batch))
			return
		}
		select {
		case ev := <-ing.queue:
			batch = append(batch, ev)
			if len(batch) >= ing.cfg.BatchSize {
				batch = ing.applyBatch(batch)
			}
		case <-timer.C:
			batch = ing.applyBatch(ing.drain(batch))
			timer.Reset(ing.cfg.FlushInterval)
		case <-ing.flushCh:
			batch = ing.applyBatch(ing.drain(batch))
		case <-ing.openCtx.Done():
			ing.abort(ing.drain(batch))
			return
		case <-ing.done:
			ing.applyBatch(ing.drain(batch))
			return
		}
	}
}

// abort releases batch and everything else queued without applying it,
// marks the ingester closed/aborted, and wakes every waiter. The released
// events were acknowledged, so they must survive: they are still in the
// WAL, and because the abort path never checkpoints past them, the next
// Open replays them. It keeps receiving until the pending accounting
// drains, so a writer already committed to its queue send cannot block
// forever against a departed applier.
func (ing *Ingester) abort(batch []event) {
	ing.markAborted()
	ing.mu.Lock()
	pending := ing.pending
	ing.mu.Unlock()
	var bytes int64
	for _, ev := range batch {
		bytes += int64(ev.size)
	}
	ing.unaccount(len(batch), bytes)
	pending -= len(batch)
	for pending > 0 {
		select {
		case ev := <-ing.queue:
			ing.unaccount(1, int64(ev.size))
		case <-time.After(10 * time.Millisecond):
			// A writer that failed its WAL append unaccounts itself without
			// ever sending; re-read instead of waiting for a send.
		}
		ing.mu.Lock()
		pending = ing.pending
		ing.mu.Unlock()
	}
}

// drain appends every immediately available queued event to batch.
func (ing *Ingester) drain(batch []event) []event {
	for {
		select {
		case ev := <-ing.queue:
			batch = append(batch, ev)
		default:
			return batch
		}
	}
}

// applyBatch pushes one batch through the incremental pipeline: all text
// fragments in one parse-pool pass, record batches in log order, then one
// fused-view refresh. Returns a nil batch for reuse.
func (ing *Ingester) applyBatch(batch []event) []event {
	if len(batch) == 0 {
		ing.cond.Broadcast() // wake Flush waiters even on empty flushes
		return nil
	}
	start := time.Now()
	var frags []Fragment
	for _, ev := range batch {
		if ev.kind == evText {
			frags = append(frags, ev.frags...)
		}
	}
	if len(frags) > 0 {
		ni, ne, err := ing.tamer.ApplyFragments(ing.openCtx, frags, ing.cfg.Workers)
		if err != nil {
			// Only cancellation reaches here; the events stay in the WAL and
			// the loop's next select observes openCtx.Done and aborts. Mark
			// the abort before this batch is unaccounted below, so a Flush
			// waiter woken by the unaccount cannot read pending==0 with
			// aborted still false and report a clean flush for writes that
			// were never applied.
			ing.markAborted()
		} else {
			ing.instances.Add(int64(ni))
			ing.entities.Add(int64(ne))
			ing.fragments.Add(int64(len(frags)))
		}
	}
	gotRecords := false
	for _, ev := range batch {
		if ev.kind != evRecords {
			continue
		}
		if _, err := ing.tamer.ApplyRecords(ing.openCtx, ev.source, ev.recs); err != nil {
			if ing.openCtx.Err() != nil {
				ing.markAborted()
				continue
			}
			// Poison event: it would fail identically on every retry and on
			// replay, so drop it and count it rather than wedging the queue.
			ing.mu.Lock()
			ing.applyErr = err
			ing.mu.Unlock()
			ing.applyErrors.Add(1)
			continue
		}
		gotRecords = true
		ing.records.Add(int64(len(ev.recs)))
	}
	if gotRecords {
		if _, err := ing.tamer.RefreshFused(ing.openCtx); err == nil {
			ing.refreshes.Add(1)
		}
	}
	elapsed := time.Since(start).Nanoseconds()
	ing.batches.Add(1)
	ing.batchNanos.Add(elapsed)
	ing.lastBatchNanos.Store(elapsed)
	var bytes int64
	for _, ev := range batch {
		bytes += int64(ev.size)
	}
	ing.unaccount(len(batch), bytes)
	return nil
}

// Flush blocks until every acknowledged write has been applied (or dropped
// as poison — see Stats.ApplyErrors), so queries issued after it returns
// observe all prior ingests. Cancelling ctx abandons the wait — the queued
// writes still apply in the background.
func (ing *Ingester) Flush(ctx context.Context) error {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	if ing.aborted {
		return dterr.Wrap(dterr.CodeClosed, dterr.FromContext(ing.openCtx.Err()))
	}
	for ing.pending > 0 {
		if err := ctx.Err(); err != nil {
			return dterr.FromContext(err)
		}
		if ing.aborted {
			return dterr.Wrap(dterr.CodeClosed, dterr.FromContext(ing.openCtx.Err()))
		}
		select {
		case ing.flushCh <- struct{}{}:
		default:
		}
		ing.waitLocked(ctx)
	}
	// The queue may have drained because the applier aborted (releasing
	// events unapplied) rather than applying; that is not a clean flush.
	if ing.aborted {
		return dterr.Wrap(dterr.CodeClosed, dterr.FromContext(ing.openCtx.Err()))
	}
	return nil
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
// view's members. In cluster mode the snapshot step issues checkpoint RPCs
// to the shard nodes under ctx.
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

// Close drains and applies every acknowledged write, checkpoints, and
// releases the WAL. Further writes return ErrClosed. If the open context
// was cancelled first, Close skips the checkpoint so the WAL (still
// holding the unapplied acknowledged writes) stays authoritative for the
// next Open.
func (ing *Ingester) Close() error {
	ing.mu.Lock()
	if ing.closed && !ing.aborted {
		ing.mu.Unlock()
		return nil
	}
	wasAborted := ing.aborted
	ing.closed = true
	ing.aborted = false // second Close becomes a no-op
	ing.mu.Unlock()

	ing.ingestMu.Lock()
	defer ing.ingestMu.Unlock()
	if wasAborted {
		ing.wg.Wait()
		return ing.log.Close()
	}
	err := ing.Flush(context.Background())
	// The open context may have been cancelled while Flush waited; the
	// applier then aborted instead of applying, and checkpointing now
	// would fence acknowledged-but-unapplied WAL events away.
	ing.mu.Lock()
	abortedMeanwhile := ing.aborted
	ing.aborted = false
	ing.mu.Unlock()
	if abortedMeanwhile {
		ing.wg.Wait()
		if cerr := ing.log.Close(); err == nil {
			err = cerr
		}
		return err
	}
	close(ing.done)
	ing.wg.Wait()
	// In cluster mode the checkpoint delegates the shard snapshots to the
	// hosting nodes' data directories. Nodes without -data-dir answer
	// unavailable; the WAL then stays authoritative across restarts
	// instead of the checkpoint, exactly as before node durability.
	cerr := ing.log.Checkpoint(ing.log.NextSeq()-1, ing.checkpointWriter(context.Background()))
	if err == nil && !errors.Is(cerr, dterr.ErrUnavailable) {
		err = cerr
	}
	if cerr := ing.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// Replay reports what Open recovered from the WAL.
func (ing *Ingester) Replay() store.EventReplayStats { return ing.log.Recovered() }

// Stats is a point-in-time snapshot of the ingester, the /live/stats view.
type Stats struct {
	QueueDepth    int   `json:"queue_depth"`
	QueueCapacity int   `json:"queue_capacity"`
	Pending       int   `json:"pending_events"`
	QueuedBytes   int64 `json:"queued_bytes"`

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
	pending := ing.pending
	queuedBytes := ing.queuedBytes
	closed := ing.closed
	applyErr := ing.applyErr
	ing.mu.Unlock()
	wal, replay := ing.log.Stats(), ing.log.Recovered()
	s := Stats{
		QueueDepth:      len(ing.queue),
		QueueCapacity:   cap(ing.queue),
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
