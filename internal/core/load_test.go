package core

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/extract"
	"repro/internal/record"
	"repro/internal/store"
)

// shardSnapshots returns each shard's snapshot bytes — its ids, documents,
// extents and index layout — keyed "<ns>/<shard>".
func shardSnapshots(t *testing.T, colls map[string]*store.Collection) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte, len(colls))
	for key, c := range colls {
		var b bytes.Buffer
		if err := c.WriteSnapshot(&b, 0); err != nil {
			t.Fatal(err)
		}
		out[key] = b.Bytes()
	}
	return out
}

// localShards collects the in-process shards of both namespaces of tm.
func localShards(tm *Tamer) map[string]*store.Collection {
	out := map[string]*store.Collection{}
	for _, s := range []*store.Sharded{tm.Instances, tm.Entities} {
		for i := 0; i < s.NumShards(); i++ {
			out[cluster.ShardKey(s.NS(), i)] = s.Shard(i)
		}
	}
	return out
}

// remoteStores points tm at shards hosted by one node behind Loopback and
// returns the node's collections.
func remoteStores(t *testing.T, tm *Tamer) map[string]*store.Collection {
	t.Helper()
	node := cluster.NewNode("load")
	colls := map[string]*store.Collection{}
	var routers []*store.Sharded
	for _, s := range []*store.Sharded{tm.Instances, tm.Entities} {
		backends := make([]store.ShardBackend, s.NumShards())
		for i := range backends {
			key := cluster.ShardKey(s.NS(), i)
			colls[key] = store.NewCollection(s.NS(), tm.Config().ExtentSize)
			node.AddShard(key, colls[key])
			backends[i] = cluster.NewRemoteShard(s.NS(), i, cluster.Loopback{Node: node}, nil)
		}
		key := map[string]string{"dt.instance": "source_url", "dt.entity": "name"}[s.NS()]
		r, err := store.NewShardedBackends(s.NS(), key, backends)
		if err != nil {
			t.Fatal(err)
		}
		routers = append(routers, r)
	}
	tm.SetStores(routers[0], routers[1])
	return colls
}

// TestWindowedLoadMatchesSerialInserts loads a batch of more than three
// windows through ApplyFragments, on four local shards and on four shards
// behind a node, and checks every shard of both namespaces against a
// reference that parses each fragment with its own parser and stores each
// document with one InsertCtx, in fragment order: the same ids, documents,
// extents and indexes, byte for byte.
func TestWindowedLoadMatchesSerialInserts(t *testing.T) {
	ctx := context.Background()
	cfg := Config{Shards: 4, Seed: 4}
	parser := extract.NewParser()
	frags := datagen.GenerateWebText(datagen.WebTextConfig{
		Fragments: 3*applyWindow + 17, Seed: cfg.Seed, Gazetteer: parser.Gazetteer(),
	})

	ref := New(cfg)
	if err := ref.indexStores(ctx); err != nil {
		t.Fatal(err)
	}
	var wantEntities int
	for _, f := range frags {
		res := parser.Parse(f.Text)
		if _, _, err := ref.Instances.InsertCtx(ctx, res.InstanceDoc(f.URL)); err != nil {
			t.Fatal(err)
		}
		for _, d := range res.EntityDocs(f.URL) {
			if _, _, err := ref.Entities.InsertCtx(ctx, d); err != nil {
				t.Fatal(err)
			}
			wantEntities++
		}
	}
	want := shardSnapshots(t, localShards(ref))

	local := New(cfg)
	remote := New(cfg)
	for _, c := range []struct {
		name  string
		tm    *Tamer
		colls map[string]*store.Collection
	}{
		{"four local shards", local, localShards(local)},
		{"four remote shards", remote, remoteStores(t, remote)},
	} {
		gen := c.tm.DataGeneration()
		ni, ne, err := c.tm.ApplyFragments(ctx, frags, 3)
		if err != nil || ni != len(frags) || ne != wantEntities {
			t.Fatalf("%s: ApplyFragments = %d instances, %d entities (%v), want %d, %d", c.name, ni, ne, err, len(frags), wantEntities)
		}
		if got := c.tm.DataGeneration(); got != gen+1 {
			t.Errorf("%s: the load moved the generation from %d to %d, want one bump", c.name, gen, got)
		}
		got := shardSnapshots(t, c.colls)
		if len(got) != len(want) {
			t.Fatalf("%s: %d shards, want %d", c.name, len(got), len(want))
		}
		for key, w := range want {
			if !bytes.Equal(got[key], w) {
				t.Errorf("%s: shard %s differs from one insert per document (%d B snapshot, want %d B)", c.name, key, len(got[key]), len(w))
			}
		}
	}
}

// TestStreamedIngestMatchesMaterializedLoad: IngestWebText, which takes
// its windows from the generator as it writes them, stores the shards a
// load of the whole generated corpus through ApplyFragments stores, byte
// for byte, at corpus sizes around the window's, with one generation bump
// and the ingest stage counting every fragment.
func TestStreamedIngestMatchesMaterializedLoad(t *testing.T) {
	ctx := context.Background()
	for _, fragments := range []int{1, applyWindow - 1, applyWindow, applyWindow + 1, 2*applyWindow + 203} {
		cfg := Config{Shards: 4, Seed: 5, Fragments: fragments}
		ref := New(cfg)
		frags := datagen.GenerateWebText(datagen.WebTextConfig{Fragments: fragments, Seed: cfg.Seed, Gazetteer: ref.Parser.Gazetteer()})
		if _, _, err := ref.ApplyFragments(ctx, frags, 0); err != nil {
			t.Fatal(err)
		}
		streamed := New(cfg)
		gen := streamed.DataGeneration()
		if err := streamed.IngestWebText(ctx); err != nil {
			t.Fatal(err)
		}
		if got := streamed.DataGeneration(); got != gen+1 {
			t.Errorf("F = %d: the ingest moved the generation from %d to %d, want one bump", fragments, gen, got)
		}
		if st := streamed.Stages(); len(st) == 0 || st[0].Stage != "ingest-webtext" || st[0].Items != fragments {
			t.Errorf("F = %d: stages %+v, want ingest-webtext of %d items first", fragments, st, fragments)
		}
		want, got := shardSnapshots(t, localShards(ref)), shardSnapshots(t, localShards(streamed))
		for key, w := range want {
			if !bytes.Equal(got[key], w) {
				t.Errorf("F = %d: shard %s differs from the materialized load (%d B snapshot, want %d B)", fragments, key, len(got[key]), len(w))
			}
		}
	}
}

// tables renders what the paper's Tables I–VI print of tm, for comparing
// two pipelines.
func tables(t *testing.T, tm *Tamer) string {
	t.Helper()
	ctx := context.Background()
	var b bytes.Buffer
	fmt.Fprintf(&b, "I %+v\nII %+v\n", tm.InstanceStats(), tm.EntityStats())
	types, err := tm.EntityTypeCounts(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "III %+v\n", types)
	top, err := tm.TopDiscussed(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "IV %+v\n", top)
	for _, show := range []string{"Matilda", "Wicked", "Chicago", "Pippin"} {
		web, fused, err := tm.QueryShow(ctx, show)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "V %s %s\nVI %s %s\n", show, web, show, fused)
	}
	return b.String()
}

// TestRunMatchesStagesInOrder checks that Run, which builds the text and
// structured sides at once, leaves what the three stages called one after
// another leave: the same Tables I–VI, fused records and shards, and the
// stage reports in pipeline order.
func TestRunMatchesStagesInOrder(t *testing.T) {
	ctx := context.Background()
	cfg := Config{Fragments: 2*applyWindow + 3, FTSources: 6, Shards: 4, Seed: 6}
	run := New(cfg)
	if err := run.Run(ctx); err != nil {
		t.Fatal(err)
	}
	staged := New(cfg)
	for _, stage := range []func(context.Context) error{staged.IngestWebText, staged.ImportFTables, staged.CleanAndConsolidate} {
		if err := stage(ctx); err != nil {
			t.Fatal(err)
		}
	}

	if got, want := tables(t, run), tables(t, staged); got != want {
		t.Errorf("Run's tables differ from the staged pipeline's:\n%s\nwant\n%s", got, want)
	}
	str := func(recs []*record.Record) []string {
		out := make([]string, len(recs))
		for i, r := range recs {
			out[i] = r.String()
		}
		return out
	}
	if got, want := str(run.FusedRecords()), str(staged.FusedRecords()); !slices.Equal(got, want) {
		t.Errorf("Run fused %d records, the staged pipeline %d, or they differ", len(got), len(want))
	}
	want := shardSnapshots(t, localShards(staged))
	for key, got := range shardSnapshots(t, localShards(run)) {
		if !bytes.Equal(got, want[key]) {
			t.Errorf("shard %s differs between Run and the staged pipeline", key)
		}
	}
	for _, tm := range []*Tamer{run, staged} {
		var names []string
		for _, s := range tm.Stages() {
			names = append(names, s.Stage)
		}
		if !slices.Equal(names, stageOrder) {
			t.Errorf("stages %q, want %q", names, stageOrder)
		}
	}
}

// cancellingShard is a local shard that cancels a context once its first
// insert has stored its documents.
type cancellingShard struct {
	store.LocalShard
	cancel context.CancelFunc
}

func (c cancellingShard) Insert(ctx context.Context, docs ...*store.Doc) ([]int64, error) {
	ids, err := c.LocalShard.Insert(ctx, docs...)
	c.cancel()
	return ids, err
}

// TestApplyFragmentsCancelAfterFirstWindowStoresAll cancels a load on local
// stores once the first window has landed on a shard: the batch must not be
// split, so the stores then hold all of it, as a load nobody cancelled
// leaves them.
func TestApplyFragmentsCancelAfterFirstWindowStoresAll(t *testing.T) {
	cfg := Config{Shards: 4, Seed: 7}
	tm := New(cfg)
	frags := datagen.GenerateWebText(datagen.WebTextConfig{
		Fragments: 2*applyWindow + 50, Seed: cfg.Seed, Gazetteer: tm.Parser.Gazetteer(),
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	backends := make([]store.ShardBackend, cfg.Shards)
	for i := range backends {
		backends[i] = cancellingShard{LocalShard: store.LocalShard{Coll: store.NewCollection(tm.Instances.NS(), tm.Config().ExtentSize)}, cancel: cancel}
	}
	instances, err := store.NewShardedBackends(tm.Instances.NS(), "source_url", backends)
	if err != nil {
		t.Fatal(err)
	}
	tm.SetStores(instances, tm.Entities)

	ni, ne, err := tm.ApplyFragments(ctx, frags, 2)
	if ctx.Err() == nil {
		t.Fatal("the load never cancelled its context")
	}
	if err != nil || ni != len(frags) {
		t.Fatalf("ApplyFragments cancelled after the first window = %d instances, %d entities (%v), want the whole batch of %d", ni, ne, err, len(frags))
	}
	ref := New(cfg)
	if _, _, err := ref.ApplyFragments(context.Background(), frags, 2); err != nil {
		t.Fatal(err)
	}
	if got, want := tm.InstanceStats(), ref.InstanceStats(); got != want {
		t.Errorf("instances after the cancelled load: %+v, want %+v", got, want)
	}
	if got, want := tm.EntityStats(), ref.EntityStats(); got != want {
		t.Errorf("entities after the cancelled load: %+v, want %+v", got, want)
	}
}
