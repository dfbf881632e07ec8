// Command dtserver runs the fusion pipeline once and serves it over HTTP:
//
//	dtserver -addr :8080 -fragments 2000 -sources 20 -seed 1
//
// With -live the server also accepts streaming writes, durably logged to a
// write-ahead log under -wal-dir and applied by one applier that takes
// everything queued as one batch; the queue's two bounds are constants of
// the live package (-fsync adds an fsync per append). A checkpoint in
// -wal-dir holds one snapshot per shard, each carrying its extent size and
// index layout, so a restart reloads the stores without rebuilding an
// index list, plus the fused view's members; with -cluster the nodes own
// the shards and it holds the members alone. State left in -wal-dir by a
// previous run is recovered on startup, and shutdown (SIGINT/SIGTERM)
// drains the queue and checkpoints:
//
//	dtserver -addr :8080 -live -wal-dir ./dtlive
//
// The HTTP surface is the versioned /v1 API (uniform envelope, pagination,
// typed errors): GET /v1/stats /v1/types /v1/top /v1/cheapest /v1/find
// /v1/show, POST /v1/ingest/text /v1/ingest/records /v1/flush, GET
// /v1/live/stats.
//
// The serving tier is production-shaped by default: Prometheus-format
// metrics at GET /metrics and a generation-keyed response cache with
// strong ETags are on (disable with -no-metrics / -cache-bytes=-1), and
// per-client rate limiting (-rate/-burst), admission control
// (-max-inflight/-max-queue, shedding 429 + Retry-After), and pprof
// (-pprof) are opt-in.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	datatamer "repro"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dtserver: ")
	addr := flag.String("addr", ":8080", "listen address")
	fragments := flag.Int("fragments", 2000, "web-text fragments to generate")
	sources := flag.Int("sources", 20, "structured FTABLES sources")
	seed := flag.Int64("seed", 1, "deterministic seed")
	liveMode := flag.Bool("live", false, "accept streaming writes (POST /v1/ingest/*)")
	walDir := flag.String("wal-dir", "dtlive", "live mode: WAL and checkpoint directory")
	fsync := flag.Bool("fsync", false, "live mode: fsync the WAL on every append")
	clusterPath := flag.String("cluster", "", "cluster mode: cluster.json membership file; shards are served by dtnode processes")
	cacheBytes := flag.Int64("cache-bytes", 0, "response cache budget in bytes (0 = 32 MB default, negative disables)")
	rate := flag.Float64("rate", 0, "per-client rate limit in requests/sec (0 disables)")
	burst := flag.Int("burst", 0, "rate-limit burst size (0 = ceil(rate))")
	maxInflight := flag.Int("max-inflight", 0, "admission control: max concurrently running handlers (0 disables)")
	maxQueue := flag.Int("max-queue", 0, "admission control: max requests queued for a slot before shedding 429")
	pprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	noMetrics := flag.Bool("no-metrics", false, "disable instrumentation and GET /metrics")
	flag.Parse()

	// The pipeline's lifecycle context stays uncancelled: cancelling it
	// would abort the live applier (WAL-safe, but the next start pays a
	// replay), while the signal path below drains and checkpoints.
	ctx := context.Background()

	opts := []datatamer.Option{
		datatamer.WithFragments(*fragments),
		datatamer.WithSources(*sources),
		datatamer.WithSeed(*seed),
	}
	if *clusterPath != "" {
		opts = append(opts, datatamer.WithCluster(*clusterPath))
	}
	if *liveMode {
		opts = append(opts, datatamer.WithLive(*walDir))
		if *fsync {
			opts = append(opts, datatamer.WithLiveFsync())
		}
	}

	start := time.Now()
	tm, err := datatamer.Open(ctx, opts...)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("pipeline ready in %s: %d instances, %d entities, %d fused records",
		time.Since(start).Round(time.Millisecond),
		tm.InstanceStats().Count, tm.EntityStats().Count, len(tm.FusedRecords()))
	if *clusterPath != "" {
		log.Printf("cluster mode: shards served by dtnode processes from %s", *clusterPath)
	}
	if tm.Live() {
		if ls, err := tm.LiveStats(); err == nil && (ls.ReplayApplied > 0 || ls.ReplaySkipped > 0) {
			log.Printf("recovered WAL: %d events applied, %d already checkpointed (torn tail: %v)",
				ls.ReplayApplied, ls.ReplaySkipped, ls.ReplayTruncated)
		}
		log.Printf("live ingestion on (wal: %s)", *walDir)
	}

	handler := tm.HandlerOptions(datatamer.ServeOptions{
		CacheBytes:     *cacheBytes,
		RatePerSec:     *rate,
		Burst:          *burst,
		MaxInFlight:    *maxInflight,
		MaxQueue:       *maxQueue,
		DisableMetrics: *noMetrics,
		Pprof:          *pprof,
	})
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("listening on %s (API: /v1)", *addr)
	if !*noMetrics {
		log.Printf("metrics on GET /metrics")
	}
	if *rate > 0 {
		log.Printf("rate limit: %.1f req/s per client (burst %d)", *rate, *burst)
	}
	if *maxInflight > 0 {
		log.Printf("admission control: %d in flight, %d queued", *maxInflight, *maxQueue)
	}

	sigCtx, stop := signal.NotifyContext(ctx, syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-sigCtx.Done():
	}
	log.Printf("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
	if tm.Live() {
		if err := tm.Close(); err != nil {
			log.Printf("ingester close: %v", err)
		} else {
			log.Printf("WAL flushed and checkpointed")
		}
	}
}
