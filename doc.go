// Package datatamer is a from-scratch Go reproduction of "Text and
// Structured Data Fusion in Data Tamer at Scale" (Gubanov, Stonebraker,
// Bruckner — ICDE 2014): an end-to-end data curation system that fuses
// unstructured web text with structured and semi-structured sources.
//
// The package is a facade over the internal modules:
//
//   - a sharded semi-structured document store with extent accounting,
//     secondary indexes, an inverted text index for substring queries,
//     and one read op — a filtered window, count, group count or plan —
//     fanned out across shards concurrently (internal/store) — the
//     Tables I-II substrate and the group counts of Tables III-IV;
//   - a domain-specific parser extracting typed entities from text into
//     WEBINSTANCE and WEBENTITIES documents (internal/extract);
//   - bottom-up schema integration with heuristic matchers, thresholds and
//     alerts (internal/schema, internal/match) — the Figs. 2-3 workflow;
//   - ML-driven entity consolidation and cleaning (internal/dedup,
//     internal/ml, internal/clean) — the Section IV classifier: prefix
//     blocking, a binned naive Bayes match classifier under k-fold
//     cross-validation, union-find clusters, and currency, date,
//     whitespace and missing-value cleaning rules;
//   - expert sourcing for uncertain decisions (internal/expert);
//   - fusion queries that enrich text results with structured fields
//     (internal/fuse) — Tables IV-VI — served from immutable fused-view
//     snapshots with a hash show index and cached aggregates, so lookups
//     cost a map probe and concurrent live ingest never exposes a
//     half-built view;
//   - live ingestion (internal/live): streaming writes after the batch
//     run, acknowledged only once appended to a CRC-framed write-ahead
//     log, applied by a batching worker pool, and recovered after a
//     crash by replaying the WAL over the last checkpoint — the one
//     durable-log protocol (internal/store.Log) that also backs dtnode
//     shards and SaveStoresCtx;
//   - a versioned HTTP surface (internal/serve, /v1 with a uniform
//     response envelope and pagination) and a Go client SDK for it
//     (repro/client). Handler wraps the routes in production middleware:
//     a response cache keyed to the pipeline's data generation (strong
//     ETags, If-None-Match revalidation for any HTTP client; the one
//     place a /v1 response is cached) plus opt-in per-client rate
//     limiting and admission control (ServeOptions/HandlerOptions), both
//     shedding with 429 + Retry-After that the SDK honors;
//   - dependency-free observability (internal/obs): a Prometheus-text
//     -format registry of counters, gauges and latency histograms, wired
//     through every HTTP route, the response cache, admission control,
//     and the cluster transport, served at GET /metrics (see
//     MetricsHandler for embedders);
//   - cluster mode (internal/cluster, cmd/dtnode): shards served by
//     separate node processes over a CRC-framed binary protocol, placed
//     by the same FNV-1a mod-N routing a single process uses, with
//     optional read replicas behind a read-your-writes generation fence,
//     and dterr codes preserved across the wire; cluster.json is the
//     membership and nothing else. A shard has one image, its snapshot
//     (documents, extent size, index layout): nodes started with
//     -data-dir checkpoint it beside a node-local WAL and recover it on
//     restart, a primary ships it to a follower that fell out of its
//     replication window, and a core restore reads it; Open probes shard
//     generations and skips batch ingest against a warm cluster. Enabled
//     with WithCluster or WithClusterConfig. Remote-shard calls run
//     behind a resilience layer: idempotent reads retry transient
//     failures with budget-aware exponential backoff, per-node circuit
//     breakers fail fast while a node is down, and fan-out reads degrade
//     to partial results when shards stay unreachable — HTTP 200 plus a
//     degraded envelope marker and X-DT-Degraded header, with
//     ?partial=0 restoring whole-or-nothing semantics. The
//     internal/faultinject package injects deterministic, seeded
//     faults (latency, typed errors, drops, duplicates, partitions)
//     at the transport for chaos testing.
//
// # Constructing a pipeline
//
// Open builds the pipeline with functional options, executes the batch
// run under the caller's context, and — when WithLive is given — starts
// the streaming ingester (recovering any WAL state a previous process
// left behind):
//
//	tamer, err := datatamer.Open(ctx,
//		datatamer.WithFragments(2000),
//		datatamer.WithSeed(1),
//		datatamer.WithLive("./dtlive"),
//	)
//	if err != nil {
//		log.Fatal(err)
//	}
//	defer tamer.Close()
//
//	fused, err := tamer.QueryFused(ctx, "Matilda")
//	if err != nil {
//		log.Fatal(err)
//	}
//	fmt.Println(datatamer.FormatKV(fused, datatamer.TableVIOrder))
//
// Every entry point that performs I/O or iteration takes a
// context.Context; cancelling it stops the batch parse workers and the
// live apply loop. Errors carry the repro/dterr taxonomy, so callers
// branch with errors.Is — e.g. dterr.ErrNotFound, dterr.ErrBusy (write
// abandoned under backpressure), dterr.ErrUnavailable (live methods on a
// batch-only pipeline).
//
// Every generator is deterministic given WithSeed; cmd/datatamer's tables
// subcommand prints each table and figure of the paper, and its golden test
// pins them at the default seed.
package datatamer
