package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"repro/client"
	"repro/internal/datagen"
	"repro/internal/obs"
)

const (
	liveFragments     = 2000
	fragmentsPerCycle = 10
	recordsPerCycle   = 5
	liveSource        = "live_feed"
)

var liveMixed = workload{
	name:    "live_mixed",
	why:     "writes beside reads with the default caches on: WAL, applier, index upkeep, fused refresh, checkpoints, and the only workload where respCache and the ETag LRU do work",
	tailQ:   0.95,
	round:   10, // cycles 4 and 9 of every ten also ingest records and checkpoint
	warmup:  5,  // up to the first cycle that ingests records
	memOps:  100,
	topRung: rungClient,
	setup: func(ctx context.Context, cfg config, _ any) (runner, error) {
		return newLiveRunner(ctx, cfg)
	},
}

// liveRunner runs write-then-read cycles against a live system with the
// default ServeOptions and the default SDK.
type liveRunner struct {
	sys  *system
	dir  string
	plan viewPlan
	seed int64
	pool []datagen.Fragment // texts the cycles ingest, reused with fresh URLs

	// The counts the final ones are checked against.
	baseInstances, baseEntities int64

	fragmentsSent, recordsSent int
	coreEntities               int // entities inserted by the core rung, which bypasses the ingester

	ingesterCycles int // cycles whose writes went through the ingester

	// What the WAL holds since the last checkpoint, in fragments and in
	// bytes of user data.
	sinceCkptFrags, sinceCkptUserBytes int

	// Traced cycles.
	tracedCycles      int
	cacheBefore       samples
	walBytes, walUser float64 // summed over the checkpoints sampled
	walFragments      float64
}

func newLiveRunner(ctx context.Context, cfg config) (_ *liveRunner, err error) {
	dir, err := tempDir(cfg.outDir, "live-wal-")
	if err != nil {
		return nil, err
	}
	sys, err := buildSystem(ctx, systemSpec{
		fragments: orDefault(cfg.fragments, liveFragments), sources: orDefault(cfg.sources, ftSources), seed: cfg.corpus, liveDir: dir,
	})
	if err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	r := &liveRunner{
		sys: sys, dir: dir, seed: cfg.seed,
		plan: newViewPlan(cfg.seed, fusedShowNames(sys.tamer)),
		// Fragment 0 of every generated corpus is the paper's Matilda feed;
		// the cycles ingest the ones after it.
		pool: datagen.GenerateWebText(datagen.WebTextConfig{Fragments: 2001, Seed: cfg.corpus + 1, Gazetteer: sys.tamer.Parser.Gazetteer()})[1:],
	}
	stats, err := sys.sdk.Stats(ctx)
	if err != nil {
		return nil, errors.Join(err, r.close())
	}
	r.baseInstances, r.baseEntities = stats.Instance.Count, stats.Entity.Count
	return r, nil
}

// fragments lists the fragments cycle i ingests.
func (r *liveRunner) fragments(i int) []client.Fragment {
	out := make([]client.Fragment, fragmentsPerCycle)
	for j := range out {
		n := i*fragmentsPerCycle + j
		out[j] = client.Fragment{
			URL:  fmt.Sprintf("http://live.example.com/%d/%d", r.seed, n),
			Text: r.pool[n%len(r.pool)].Text,
		}
	}
	return out
}

// records lists the structured records a records cycle ingests: new shows
// the fused view has to take in.
func (r *liveRunner) records(i int) []map[string]any {
	out := make([]map[string]any, recordsPerCycle)
	for j := range out {
		n := i*recordsPerCycle + j
		out[j] = map[string]any{
			"SHOW_NAME":      fmt.Sprintf("Revival %d of %s", n, r.plan.shows[n%len(r.plan.shows)]),
			"THEATER":        "Belasco Theatre",
			"CHEAPEST_PRICE": 30 + n%100,
		}
	}
	return out
}

func hasRecords(i int) bool    { return i%10 == 4 }
func hasCheckpoint(i int) bool { return i%10 == 9 }

// op is one cycle: ingest ten fragments (and, some cycles, five records),
// flush, view a page that misses every cache because the generation moved,
// view it again so that every request hits one, and some cycles checkpoint.
func (r *liveRunner) op(ctx context.Context, i int) (time.Duration, error) {
	frags := r.fragments(i)
	reqs := r.plan.view(i)
	c := r.sys.sdk
	t0 := time.Now()
	if _, err := c.IngestText(ctx, frags); err != nil {
		return 0, fmt.Errorf("ingest text: %w", err)
	}
	r.logged(frags)
	if hasRecords(i) {
		recs := r.records(i)
		if _, err := c.IngestRecords(ctx, liveSource, recs); err != nil {
			return 0, fmt.Errorf("ingest records: %w", err)
		}
		r.loggedRecords(recs)
	}
	if err := c.Flush(ctx); err != nil {
		return 0, fmt.Errorf("flush: %w", err)
	}
	miss, err := sdkView(ctx, c, reqs)
	if err != nil {
		return 0, err
	}
	hit, err := sdkView(ctx, c, reqs)
	if err != nil {
		return 0, err
	}
	if hasCheckpoint(i) {
		if err := c.Checkpoint(ctx); err != nil {
			return 0, fmt.Errorf("checkpoint: %w", err)
		}
		r.sinceCkptFrags, r.sinceCkptUserBytes = 0, 0
	}
	d := time.Since(t0)
	return d, sameReplies(reqs, miss, hit)
}

// logged notes fragments that went into the WAL.
func (r *liveRunner) logged(frags []client.Fragment) {
	r.fragmentsSent += len(frags)
	r.ingesterCycles++
	r.sinceCkptFrags += len(frags)
	for _, f := range frags {
		r.sinceCkptUserBytes += len(f.URL) + len(f.Text)
	}
}

// loggedRecords notes records that went into the WAL.
func (r *liveRunner) loggedRecords(recs []map[string]any) {
	r.recordsSent += len(recs)
	body, _ := json.Marshal(recs) // maps of strings and ints always marshal
	r.sinceCkptUserBytes += len(body)
}

// sameReplies fails a cycle whose second view, served from the caches, is
// not the first view's replies: both were taken within one data generation.
func sameReplies(reqs []request, miss, hit []any) error {
	book := replyBook{}
	if err := book.check(reqs, miss); err != nil {
		return err
	}
	return book.check(reqs, hit)
}

// tracedOp is the cycle with its writes issued at one rung — SDK, handler,
// ingester or core, taking turns — so that each rung sees the same kind of
// write on a quarter of the traced cycles; the views always go through the
// SDK.
func (r *liveRunner) tracedOp(ctx context.Context, tr *tracer, i int) error {
	if r.cacheBefore == nil {
		r.cacheBefore = scrape(obs.Default().Render())
	}
	rung := []string{rungClient, rungServe, rungLive, rungCore}[r.tracedCycles%4]
	r.tracedCycles++
	reqs := r.plan.view(i)
	miss, hit, err := r.tracedCycle(ctx, tr, i, rung, reqs)
	if err != nil {
		return err
	}
	return sameReplies(reqs, miss, hit)
}

// tracedCycle runs cycle i below an "op" span of the write's rung.
func (r *liveRunner) tracedCycle(ctx context.Context, tr *tracer, i int, rung string, reqs []request) (miss, hit []any, err error) {
	c := r.sys.sdk
	frags := r.fragments(i)
	root := tr.begin("op", rung, i, -1)
	defer tr.end(root)
	timed := func(name, rung string, fn func() error) error {
		id := tr.begin(name, rung, i, root)
		defer tr.end(id)
		if err := fn(); err != nil {
			return fmt.Errorf("%s rung %s: %w", rung, name, err)
		}
		return nil
	}

	if err := r.tracedWrite(ctx, timed, rung, frags); err != nil {
		return nil, nil, err
	}
	if rung == rungCore {
		r.fragmentsSent += len(frags)
	} else {
		r.logged(frags)
	}
	if hasRecords(i) {
		recs := r.records(i)
		if err := timed("ingest_records", rungClient, func() error {
			_, err := c.IngestRecords(ctx, liveSource, recs)
			return err
		}); err != nil {
			return nil, nil, err
		}
		r.loggedRecords(recs)
		// The applier folds the records into the fused view inside this
		// flush, so the refresh shows here and not on the next show.
		if err := timed("flush_records", rungClient, func() error { return c.Flush(ctx) }); err != nil {
			return nil, nil, err
		}
	}
	if miss, err = tracedSDKView(ctx, tr, c, reqs, i, "view_miss"); err != nil {
		return nil, nil, err
	}
	if hit, err = tracedSDKView(ctx, tr, c, reqs, i, "view_hit"); err != nil {
		return nil, nil, err
	}
	if hasCheckpoint(i) {
		if r.sinceCkptFrags > 0 {
			r.walBytes += float64(r.sys.ing.Stats().WALSizeBytes)
			r.walFragments += float64(r.sinceCkptFrags)
			r.walUser += float64(r.sinceCkptUserBytes)
		}
		r.sinceCkptFrags, r.sinceCkptUserBytes = 0, 0
		if err := timed("checkpoint", rungClient, func() error { return c.Checkpoint(ctx) }); err != nil {
			return nil, nil, err
		}
	}
	return miss, hit, nil
}

// tracedWrite ingests frags and makes them visible, at the given rung.
func (r *liveRunner) tracedWrite(ctx context.Context, timed func(name, rung string, fn func() error) error, rung string, frags []client.Fragment) error {
	raw := make([]datagen.Fragment, len(frags))
	for j, f := range frags {
		raw[j] = datagen.Fragment{URL: f.URL, Text: f.Text}
	}
	switch rung {
	case rungClient:
		if err := timed("ingest_text", rung, func() error {
			_, err := r.sys.sdk.IngestText(ctx, frags)
			return err
		}); err != nil {
			return err
		}
		return timed("flush", rung, func() error { return r.sys.sdk.Flush(ctx) })
	case rungServe:
		body, err := json.Marshal(map[string]any{"fragments": frags})
		if err != nil {
			return err
		}
		if err := timed("ingest_text", rung, func() error {
			return servePOST(ctx, r.sys.handler, "/v1/ingest/text", body, http.StatusAccepted)
		}); err != nil {
			return err
		}
		return timed("flush", rung, func() error {
			return servePOST(ctx, r.sys.handler, "/v1/flush", nil, http.StatusOK)
		})
	case rungLive:
		if err := timed("ingest_text", rung, func() error { return r.sys.ing.IngestText(ctx, raw) }); err != nil {
			return err
		}
		return timed("flush", rung, func() error { return r.sys.ing.Flush(ctx) })
	default:
		return timed("apply_fragments", rungCore, func() error {
			_, entities, err := r.sys.tamer.ApplyFragments(ctx, raw, 0)
			r.coreEntities += entities
			return err
		})
	}
}

// servePOST runs one POST through the handler on a recorder.
func servePOST(ctx context.Context, h http.Handler, path string, body []byte, want int) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != want {
		return fmt.Errorf("POST %s: status %d: %s", path, rec.Code, rec.Body.String())
	}
	return nil
}

// finish checks that everything ingested arrived: the final /v1/stats
// counts are the initial ones plus what was sent, and no apply failed.
func (r *liveRunner) finish(ctx context.Context) error {
	if err := r.sys.sdk.Flush(ctx); err != nil {
		return err
	}
	stats, err := r.sys.sdk.Stats(ctx)
	if err != nil {
		return err
	}
	ls := r.sys.ing.Stats()
	switch {
	case ls.ApplyErrors != 0:
		return fmt.Errorf("live.apply_errors = %d: %s", ls.ApplyErrors, ls.LastError)
	case stats.Instance.Count != r.baseInstances+int64(r.fragmentsSent):
		return fmt.Errorf("instance count %d, want initial %d + %d ingested", stats.Instance.Count, r.baseInstances, r.fragmentsSent)
	case stats.Entity.Count != r.baseEntities+ls.Entities+int64(r.coreEntities):
		return fmt.Errorf("entity count %d, want initial %d + %d applied", stats.Entity.Count, r.baseEntities, ls.Entities+int64(r.coreEntities))
	case ls.Records != int64(r.recordsSent):
		return fmt.Errorf("records applied %d, sent %d", ls.Records, r.recordsSent)
	}
	return nil
}

func (r *liveRunner) close() error {
	return errors.Join(r.sys.close(), os.RemoveAll(r.dir))
}

func (r *liveRunner) layers(tr *tracer) map[string]float64 {
	visible := sortedCopy(tr.durationsMS("flush", rungLive))
	v := map[string]float64{
		"live.ingest_ack_p50_ms":  tr.p50("ingest_text", rungLive),
		"live.visible_p50_ms":     quantile(visible, 0.5),
		"live.visible_p95_ms":     quantile(visible, 0.95),
		"live.records_ack_p50_ms": tr.p50("ingest_records", rungClient),
		"live.checkpoint_p50_ms":  tr.p50("checkpoint", rungClient),
		"serve.view_miss_p50_ms":  tr.p50("view_miss", rungClient),
		"serve.view_hit_p50_ms":   tr.p50("view_hit", rungClient),
	}

	// The write ladder: ingest plus flush at each rung, the core rung being
	// ApplyFragments alone.
	write := func(rung string) float64 { return tr.p50("ingest_text", rung) + tr.p50("flush", rung) }
	apply := tr.p50("apply_fragments", rungCore)
	self := selfTimes([]float64{write(rungClient), write(rungServe), write(rungLive), apply})
	v["client.self_ms_per_op"], v["serve.self_ms_per_op"], v["live.self_ms_per_op"] = self[0], self[1], self[2]
	v["core.apply_us_per_fragment"] = apply * 1e3 / fragmentsPerCycle

	// A flush after records also folds them into the fused view; a flush
	// after fragments alone does not.
	if d := tr.durationsMS("flush_records", rungClient); len(d) > 0 {
		v["core.refresh_fused_p50_ms"] = max(median(d)-tr.p50("flush", rungClient), 0)
	}

	if r.walFragments > 0 {
		v["live.wal_bytes_per_fragment"] = r.walBytes / r.walFragments
		v["live.wal_bytes_per_user_byte"] = r.walBytes / r.walUser
	}
	ls := r.sys.ing.Stats()
	v["live.apply_errors"] = float64(ls.ApplyErrors)
	v["live.avg_batch_ms"] = ls.AvgBatchMs
	if r.ingesterCycles > 0 {
		v["live.batches_per_cycle"] = float64(ls.Batches) / float64(r.ingesterCycles)
	}
	if r.cacheBefore != nil {
		after := scrape(obs.Default().Render())
		hits := after.sum("dt_cache_hits_total") - r.cacheBefore.sum("dt_cache_hits_total")
		misses := after.sum("dt_cache_misses_total") - r.cacheBefore.sum("dt_cache_misses_total")
		if hits+misses > 0 {
			v["serve.cache_hit_ratio"] = hits / (hits + misses)
		}
	}
	return v
}
