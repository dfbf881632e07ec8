package datatamer

import (
	"context"
	"net/http"

	"repro/dterr"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/fuse"
	"repro/internal/live"
	"repro/internal/match"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/schema"
	"repro/internal/serve"
	"repro/internal/store"
)

// Stats is the store statistics of Tables I-II.
type Stats = store.Stats

// Record is the flat data model shared across the pipeline.
type Record = record.Record

// Doc is one semi-structured document of the entity store.
type Doc = store.Doc

// Discussed is one row of the Table IV ranking.
type Discussed = fuse.Discussed

// PricedShow is one row of the best-price ranking.
type PricedShow = fuse.PricedShow

// Coverage is one per-attribute fill-rate row of the fused table.
type Coverage = fuse.Coverage

// TypeCount is one row of the Table III aggregation.
type TypeCount = core.TypeCount

// StageReport times one batch pipeline stage.
type StageReport = core.StageReport

// MatchReport is one schema-matching report (the Figs. 2-3 artifacts).
type MatchReport = match.Report

// SchemaAttribute is one attribute of the integrated global schema.
type SchemaAttribute = schema.Attribute

// Explain describes the access path chosen for a filter query.
type Explain = store.Explain

// CVResult is a k-fold cross-validation summary (the Section IV metric).
type CVResult = ml.CVResult

// EntityType names one of the paper's 15 entity types.
type EntityType = extract.Type

// Fragment is one web-text fragment with its crawl URL.
type Fragment = live.Fragment

// LiveStats is a point-in-time snapshot of the live ingester.
type LiveStats = live.Stats

// PartialReads tracks the shards a degraded fan-out read could not
// reach; obtain one with WithPartialReads.
type PartialReads = store.PartialReads

// WithPartialReads derives a context under which fan-out reads tolerate
// unreachable shards: instead of failing, reads return the surviving
// shards' data and record what went missing on the returned tracker
// (Missing() > 0 means the results are partial). Without it reads keep
// their strict all-shards-or-error semantics. Cluster mode only — local
// shards cannot fail.
func WithPartialReads(ctx context.Context) (context.Context, *PartialReads) {
	return store.WithPartialReads(ctx)
}

// FormatKV renders a record in the paper's Table V/VI style.
func FormatKV(r *Record, preferred []string) string { return fuse.FormatKV(r, preferred) }

// TableVIOrder is the attribute order of the paper's Table VI.
var TableVIOrder = fuse.TableVIOrder

// TableIVShows lists the paper's Table IV top-10 shows in printed order.
var TableIVShows = extract.TableIVShows

// ClassifierTypes lists the entity types the Section IV classifier is
// evaluated on.
var ClassifierTypes = []EntityType{extract.Person, extract.Company, extract.Movie, extract.Facility}

// options collects the functional-option state for Open.
type options struct {
	cfg         core.Config
	liveDir     string
	liveCfg     live.Config
	clusterPath string
	clusterCfg  *cluster.Config
}

// Option configures Open.
type Option func(*options)

// WithFragments sets the number of web-text fragments the batch run
// generates and ingests (default 2000).
func WithFragments(n int) Option { return func(o *options) { o.cfg.Fragments = n } }

// WithSources sets the number of structured FTABLES sources (default 20,
// the paper's count).
func WithSources(n int) Option { return func(o *options) { o.cfg.FTSources = n } }

// WithShards sets the shard count of the two text namespaces (default 4).
func WithShards(n int) Option { return func(o *options) { o.cfg.Shards = n } }

// WithSeed drives all generators and simulated experts (default 1).
func WithSeed(seed int64) Option { return func(o *options) { o.cfg.Seed = seed } }

// WithLive enables streaming writes after the batch run, with the WAL and
// checkpoints stored under dir. When dir already holds a checkpoint, Open
// recovers from it instead of re-ingesting the batch web text.
func WithLive(dir string) Option { return func(o *options) { o.liveDir = dir } }

// WithLiveFsync fsyncs the WAL on every append (power-failure durability;
// default off: flushed to the OS, surviving process kill).
func WithLiveFsync() Option { return func(o *options) { o.liveCfg.Fsync = true } }

// WithCluster runs the pipeline against a distributed shard cluster
// described by the cluster.json file at path: both text namespaces are
// routed to remote dtnode processes instead of in-process collections.
// Open probes the nodes first: against empty (cold) nodes the batch run
// streams its inserts over the wire; against warm nodes — dtnodes started
// with -data-dir that recovered state from their local WAL/checkpoints —
// Open skips the batch ingest and only rebuilds the coordinator-local
// derived state (schema, registry, fused view), so a coordinator restart
// never re-applies the corpus. The nodes own their durability: a live
// checkpoint holds only the coordinator's own state and asks the nodes for
// nothing, and a memory-only node that restarts comes back empty.
func WithCluster(path string) Option { return func(o *options) { o.clusterPath = path } }

// WithClusterConfig is WithCluster for an already-parsed configuration —
// the programmatic entry point used by tests and embedding processes.
func WithClusterConfig(cfg *cluster.Config) Option {
	return func(o *options) { o.clusterCfg = cfg }
}

// Tamer is the context-aware public handle over the fusion pipeline. All
// query and ingestion methods accept a context and honor its cancellation;
// errors carry the dterr taxonomy (errors.Is against dterr.ErrNotFound,
// dterr.ErrBusy, ...).
type Tamer struct {
	core *core.Tamer
	ing  *live.Ingester
	cl   *cluster.Cluster // non-nil in cluster mode; closed by Close
}

// Open builds the pipeline, executes the batch run under ctx, and — when
// WithLive is given — starts the streaming ingester (recovering WAL state
// left by a previous process first). Cancelling ctx during Open aborts the
// batch stages; cancelling it afterwards stops the live applier.
func Open(ctx context.Context, opts ...Option) (*Tamer, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	ccfg := o.clusterCfg
	if ccfg == nil && o.clusterPath != "" {
		loaded, err := cluster.LoadConfig(o.clusterPath)
		if err != nil {
			return nil, err
		}
		ccfg = loaded
	}
	var cl *cluster.Cluster
	if ccfg != nil {
		// The cluster's shard count is authoritative: routing must agree
		// with the node layout, whatever WithShards said.
		o.cfg.Shards = ccfg.Shards
		var err error
		if cl, err = cluster.Connect(ccfg, 0); err != nil {
			return nil, err
		}
	}
	t := core.New(o.cfg)
	if cl != nil {
		t.SetStores(cl.Instances, cl.Entities)
	}
	fail := func(err error) (*Tamer, error) {
		if cl != nil {
			cl.Close()
		}
		return nil, err
	}
	switch {
	case cl != nil:
		warm, err := cl.Warm(ctx)
		if err != nil {
			return fail(err)
		}
		if !warm {
			// Cold cluster: the batch run streams its inserts over the wire.
			if err := t.Run(ctx); err != nil {
				return fail(err)
			}
			break
		}
		// Warm cluster: the nodes already hold both namespaces (recovered
		// from their node-local WAL/checkpoints), so re-running batch
		// ingest would duplicate every document. Rebuild only the
		// coordinator-local derived state, which is deterministic and never
		// touches the stores: the integrated schema and registry, then the
		// consolidated fused view. A live checkpoint (when one exists)
		// restores its own fused view in live.Open below, superseding this
		// one.
		if err := t.ImportFTables(ctx); err != nil {
			return fail(err)
		}
		if err := t.CleanAndConsolidate(ctx); err != nil {
			return fail(err)
		}
	case o.liveDir != "" && store.HasCheckpoint(o.liveDir):
		// A checkpoint will replace the stores and the fused view's members;
		// only the schema/registry side of the batch run is still needed.
		if err := t.ImportFTables(ctx); err != nil {
			return fail(err)
		}
	default:
		if err := t.Run(ctx); err != nil {
			return fail(err)
		}
	}
	tm := &Tamer{core: t, cl: cl}
	if o.liveDir != "" {
		cfg := o.liveCfg
		cfg.Dir = o.liveDir
		ing, err := live.Open(ctx, t, cfg)
		if err != nil {
			return fail(err)
		}
		tm.ing = ing
	}
	return tm, nil
}

// Close stops the live ingester (draining and checkpointing) when one is
// open and disconnects from the shard cluster in cluster mode. It is safe
// to call on a batch-only pipeline.
func (t *Tamer) Close() error {
	var err error
	if t.ing != nil {
		err = t.ing.Close()
	}
	if t.cl != nil {
		if cerr := t.cl.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Live reports whether streaming ingestion is enabled.
func (t *Tamer) Live() bool { return t.ing != nil }

// Config returns the effective (defaulted) configuration.
func (t *Tamer) Config() core.Config { return t.core.Config() }

// ServeOptions configures the production middleware around the HTTP API:
// metrics, response caching, rate limiting, and admission control. The
// zero value enables metrics (recorded into the process-wide registry,
// exposed at GET /metrics) and the generation-keyed response cache at its
// default budget, with rate limiting and admission control off.
type ServeOptions struct {
	// CacheBytes bounds the response cache (0 = 32 MB default; negative
	// disables caching).
	CacheBytes int64
	// RatePerSec enables per-client token-bucket rate limiting at this
	// sustained rate (0 disables). Clients are keyed by X-API-Key when
	// present, else by remote address.
	RatePerSec float64
	// Burst is the token-bucket burst (default: ceil(RatePerSec)).
	Burst int
	// MaxInFlight bounds concurrently running handlers (0 disables
	// admission control).
	MaxInFlight int
	// MaxQueue bounds requests waiting for an admission slot; beyond it
	// requests are shed with 429 + Retry-After.
	MaxQueue int
	// DisableMetrics skips instrumentation and the /metrics endpoint.
	DisableMetrics bool
	// Pprof mounts net/http/pprof under /debug/pprof/.
	Pprof bool
}

// Handler returns the versioned HTTP API (/v1) over this pipeline, with
// write endpoints live iff WithLive was used, default metrics, and the
// response cache enabled.
func (t *Tamer) Handler() http.Handler { return t.HandlerOptions(ServeOptions{}) }

// HandlerOptions is Handler with the serving middleware configured
// explicitly.
func (t *Tamer) HandlerOptions(o ServeOptions) http.Handler {
	opts := []serve.ServerOption{
		serve.WithGeneration(t.core.DataGeneration),
		serve.WithCacheBytes(o.CacheBytes),
	}
	if !o.DisableMetrics {
		opts = append(opts, serve.WithMetrics(obs.Default()))
	}
	if o.RatePerSec > 0 {
		opts = append(opts, serve.WithRateLimit(o.RatePerSec, o.Burst))
	}
	if o.MaxInFlight > 0 {
		opts = append(opts, serve.WithAdmission(o.MaxInFlight, o.MaxQueue))
	}
	if o.Pprof {
		opts = append(opts, serve.WithPprof())
	}
	if t.ing != nil {
		return serve.NewLive(t.core, t.ing, opts...)
	}
	return serve.New(t.core, opts...)
}

// MetricsHandler serves the process-wide metrics registry in the
// Prometheus text format — the same series Handler exposes at /metrics,
// for embedders that mount their own mux.
func MetricsHandler() http.Handler { return obs.Default().Handler() }

// DataGeneration returns the pipeline's data generation: bumped after
// every completed mutation, it keys the serving tier's response cache and
// the ETags handed to API clients.
func (t *Tamer) DataGeneration() uint64 { return t.core.DataGeneration() }

// ---- read side ---------------------------------------------------------

// InstanceStats returns the WEBINSTANCE namespace stats (Table I).
func (t *Tamer) InstanceStats() Stats { return t.core.InstanceStats() }

// EntityStats returns the WEBENTITIES namespace stats (Table II).
func (t *Tamer) EntityStats() Stats { return t.core.EntityStats() }

// TypeCounts reproduces Table III: entity counts by type, descending.
func (t *Tamer) TypeCounts(ctx context.Context) ([]TypeCount, error) {
	return t.core.EntityTypeCounts(ctx)
}

// TopDiscussed runs the Table IV query; k <= 0 returns the full ranking.
func (t *Tamer) TopDiscussed(ctx context.Context, k int) ([]Discussed, error) {
	return t.core.TopDiscussed(ctx, k)
}

// QueryWebText runs the Table V query: the show as seen from web text only.
func (t *Tamer) QueryWebText(ctx context.Context, show string) (*Record, error) {
	return t.core.QueryWebText(ctx, show)
}

// QueryFused runs the Table VI query: the web-text view enriched with the
// consolidated structured record for the show.
func (t *Tamer) QueryFused(ctx context.Context, show string) (*Record, error) {
	return t.core.QueryFused(ctx, show)
}

// ShowInFused reports whether the consolidated fused table holds a record
// for the show — the existence check behind the API's 404.
func (t *Tamer) ShowInFused(ctx context.Context, show string) (bool, error) {
	return t.core.ShowInFused(ctx, show)
}

// CheapestShows ranks consolidated shows by price ascending; k <= 0
// returns all.
func (t *Tamer) CheapestShows(ctx context.Context, k int) ([]PricedShow, error) {
	return t.core.CheapestShows(ctx, k)
}

// Find parses the filter-language query and runs it over the entity store.
func (t *Tamer) Find(ctx context.Context, query string) ([]*Doc, error) {
	return t.core.FindEntities(ctx, query)
}

// ExplainFind reports the access path the store would choose for query. All
// shards share the index layout, so the first shard answers — over the
// wire in cluster mode, as an explain-mode query.
func (t *Tamer) ExplainFind(ctx context.Context, query string) (Explain, error) {
	res, err := t.core.QueryEntities(ctx, query, store.Query{Explain: true})
	return res.Plan, err
}

// FusionCoverage reports per-attribute fill rates of the fused table.
func (t *Tamer) FusionCoverage(ctx context.Context) ([]Coverage, error) {
	return t.core.FusionCoverage(ctx)
}

// ClassifierCV runs the Section IV evaluation for one entity type.
func (t *Tamer) ClassifierCV(ctx context.Context, typ EntityType, n int) (CVResult, error) {
	return t.core.ClassifierCV(ctx, typ, n)
}

// FusedRecords returns the consolidated structured records under global
// attribute names.
func (t *Tamer) FusedRecords() []*Record { return t.core.FusedRecords() }

// Stages returns the per-stage reports of the batch run.
func (t *Tamer) Stages() []StageReport { return t.core.Stages() }

// MatchReports returns the schema-matching reports in integration order.
func (t *Tamer) MatchReports() []*MatchReport { return t.core.MatchReports() }

// SchemaAttributes returns the integrated global schema's attributes.
func (t *Tamer) SchemaAttributes() []*SchemaAttribute { return t.core.Global.Attributes() }

// SchemaLen returns the global schema's attribute count.
func (t *Tamer) SchemaLen() int { return t.core.Global.Len() }

// ---- write side (live mode) --------------------------------------------

// errNotLive is returned by write methods on a batch-only pipeline.
func errNotLive() error {
	return dterr.New(dterr.CodeUnavailable, "datatamer: live ingestion not enabled; pass WithLive to Open")
}

// IngestText durably logs web-text fragments and queues them for apply.
func (t *Tamer) IngestText(ctx context.Context, frags []Fragment) error {
	if t.ing == nil {
		return errNotLive()
	}
	return t.ing.IngestText(ctx, frags)
}

// IngestRecords durably logs structured records from one source and queues
// them for apply.
func (t *Tamer) IngestRecords(ctx context.Context, source string, recs []*Record) error {
	if t.ing == nil {
		return errNotLive()
	}
	return t.ing.IngestRecords(ctx, source, recs)
}

// Flush blocks until every acknowledged write has been applied.
func (t *Tamer) Flush(ctx context.Context) error {
	if t.ing == nil {
		return errNotLive()
	}
	return t.ing.Flush(ctx)
}

// Checkpoint drains the queue, snapshots state, and truncates the WAL.
func (t *Tamer) Checkpoint(ctx context.Context) error {
	if t.ing == nil {
		return errNotLive()
	}
	return t.ing.Checkpoint(ctx)
}

// LiveStats snapshots the live ingester's counters.
func (t *Tamer) LiveStats() (LiveStats, error) {
	if t.ing == nil {
		return LiveStats{}, errNotLive()
	}
	return t.ing.Stats(), nil
}
