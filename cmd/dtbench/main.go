// Command dtbench regenerates every table and figure of the paper from a
// live pipeline run, prints them in the paper's formats, and tracks the
// performance trajectory across PRs in a machine-readable file.
//
// Usage:
//
//	dtbench [-exp all|table1|table2|table3|table4|table5|table6|fig1|fig2|fig3|classifier|bench]
//	        [-fragments N] [-sources N] [-seed N]
//	        [-bench-out BENCH_results.json] [-bench-n 50]
//
// The bench experiment times the hot query paths twice — in-process
// through the public Go API, and over HTTP through the /v1 client SDK
// against an in-process server — and writes one JSON row per op (op,
// ns/op, items/sec) to -bench-out ("" disables).
//
// The default scale (2000 fragments) is 1/1000 of the paper's deployment
// with proportionally scaled (2 MB) extents; raise -fragments to approach
// paper scale on bigger machines.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	datatamer "repro"
	"repro/client"
	"repro/internal/cluster"
	"repro/internal/fuse"
	"repro/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dtbench: ")
	exp := flag.String("exp", "all", "experiment to run (table1..table6, fig1, fig2, fig3, classifier, bench, all)")
	fragments := flag.Int("fragments", 2000, "web-text fragments to generate")
	sources := flag.Int("sources", 20, "structured FTABLES sources")
	seed := flag.Int64("seed", 1, "deterministic seed")
	benchOut := flag.String("bench-out", "BENCH_results.json", "benchmark results file (\"\" disables)")
	benchN := flag.Int("bench-n", 50, "iterations per benchmark op")
	clusterMode := flag.Bool("cluster", false, "bench: also time the coordinator path (shard traffic over TCP to an in-process cluster node)")
	flag.Parse()

	switch *exp {
	case "all", "table1", "table2", "table3", "table4", "table5", "table6", "fig1", "fig2", "fig3", "classifier", "bench":
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}

	ctx := context.Background()
	tm, err := datatamer.Open(ctx,
		datatamer.WithFragments(*fragments),
		datatamer.WithSources(*sources),
		datatamer.WithSeed(*seed),
	)
	if err != nil {
		log.Fatal(err)
	}

	run := func(name string, fn func(context.Context, *datatamer.Tamer) error) {
		if *exp == "all" || *exp == name {
			if err := fn(ctx, tm); err != nil {
				log.Fatalf("%s: %v", name, err)
			}
		}
	}
	run("table1", printTableI)
	run("table2", printTableII)
	run("table3", printTableIII)
	run("table4", printTableIV)
	run("table5", printTableV)
	run("table6", printTableVI)
	run("fig1", printFig1)
	run("fig2", printFig2)
	run("fig3", printFig3)
	run("classifier", printClassifier)
	if (*exp == "all" || *exp == "bench") && *benchOut != "" {
		var clusterCfg *benchClusterConfig
		if *clusterMode {
			clusterCfg = &benchClusterConfig{fragments: *fragments, sources: *sources, seed: *seed}
		}
		if err := runBench(ctx, tm, *benchN, *benchOut, clusterCfg); err != nil {
			log.Fatalf("bench: %v", err)
		}
	}
}

func header(s string) { fmt.Printf("\n=== %s ===\n", s) }

func printTableI(_ context.Context, tm *datatamer.Tamer) error {
	header("TABLE I: SEMI-STRUCTURED SHARDED WEB-INSTANCE COLLECTION STATISTICS")
	fmt.Println(tm.InstanceStats().FormatShell())
	return nil
}

func printTableII(_ context.Context, tm *datatamer.Tamer) error {
	header("TABLE II: WEB-ENTITIES COLLECTION STATISTICS")
	fmt.Println(tm.EntityStats().FormatShell())
	return nil
}

func printTableIII(ctx context.Context, tm *datatamer.Tamer) error {
	header("TABLE III: STATISTICS BY ENTITY TYPE IN WEB-ENTITIES")
	rows, err := tm.TypeCounts(ctx)
	if err != nil {
		return err
	}
	fmt.Println("+------------------+----------+")
	fmt.Printf("| %-16s | %8s |\n", "type", "cnt")
	fmt.Println("+------------------+----------+")
	for _, row := range rows {
		fmt.Printf("| %-16s | %8d |\n", row.Type, row.Count)
	}
	fmt.Println("+------------------+----------+")
	return nil
}

func printTableIV(ctx context.Context, tm *datatamer.Tamer) error {
	header("TABLE IV: TOP 10 MOST DISCUSSED AWARD-WINNING MOVIES/SHOWS FROM WEB-TEXT")
	fmt.Println("MOVIE/SHOW")
	top, err := tm.TopDiscussed(ctx, 10)
	if err != nil {
		return err
	}
	for _, d := range top {
		fmt.Printf("%q  (mentions: %d)\n", d.Name, d.Mentions)
	}
	return nil
}

func printTableV(ctx context.Context, tm *datatamer.Tamer) error {
	header("TABLE V: QUERY RESULTS FOR THE \"MATILDA\" BROADWAY SHOW FROM WEB-TEXT")
	web, err := tm.QueryWebText(ctx, "Matilda")
	if err != nil {
		return err
	}
	fmt.Print(fuse.FormatKV(web, []string{"SHOW_NAME", "TEXT_FEED"}))
	return nil
}

func printTableVI(ctx context.Context, tm *datatamer.Tamer) error {
	header("TABLE VI: ENRICHED QUERY RESULTS FROM WEB-TEXT AND FUSION TABLES")
	fused, err := tm.QueryFused(ctx, "Matilda")
	if err != nil {
		return err
	}
	fmt.Print(fuse.FormatKV(fused, fuse.TableVIOrder))
	return nil
}

func printFig1(ctx context.Context, tm *datatamer.Tamer) error {
	header("FIG. 1: EXTENDED DATA TAMER PIPELINE (stage report)")
	fmt.Printf("%-20s %10s %14s\n", "STAGE", "ITEMS", "DURATION")
	for _, s := range tm.Stages() {
		fmt.Printf("%-20s %10d %14s\n", s.Stage, s.Items, s.Duration.Round(1000))
	}
	fmt.Printf("global schema: %d attributes; fused records: %d\n",
		tm.SchemaLen(), len(tm.FusedRecords()))
	cov, err := tm.FusionCoverage(ctx)
	if err != nil {
		return err
	}
	fmt.Println("\nenrichment coverage of the fused table:")
	for _, c := range cov {
		fmt.Printf("  %-16s %3d/%3d (%.0f%%)\n", c.Attr, c.Filled, c.Total, c.Fraction()*100)
	}
	cheapest, err := tm.CheapestShows(ctx, 5)
	if err != nil {
		return err
	}
	fmt.Println("\ncheapest fused shows (the demo's best-price query):")
	for i, p := range cheapest {
		fmt.Printf("  %d. %-28s %s\n", i+1, p.Show, p.Raw)
	}
	return nil
}

func printFig2(_ context.Context, tm *datatamer.Tamer) error {
	header("FIG. 2: SCHEMA INTEGRATION — GLOBAL SCHEMA INITIALIZATION (first source)")
	reps := tm.MatchReports()
	if len(reps) == 0 {
		fmt.Println("(no match reports)")
		return nil
	}
	fmt.Print(reps[0].FormatReport())
	return nil
}

func printFig3(_ context.Context, tm *datatamer.Tamer) error {
	header("FIG. 3: SCHEMA INTEGRATION — STRUCTURED DATA VS GLOBAL SCHEMA (last source)")
	reps := tm.MatchReports()
	if len(reps) == 0 {
		fmt.Println("(no match reports)")
		return nil
	}
	fmt.Print(reps[len(reps)-1].FormatReport())
	return nil
}

func printClassifier(ctx context.Context, tm *datatamer.Tamer) error {
	header("SECTION IV: DEDUP/CLEANING CLASSIFIER — 10-FOLD CROSS-VALIDATION")
	fmt.Printf("%-12s %10s %10s %10s\n", "ENTITY TYPE", "PRECISION", "RECALL", "F1")
	for _, typ := range datatamer.ClassifierTypes {
		res, err := tm.ClassifierCV(ctx, typ, 600)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %9.1f%% %9.1f%% %9.1f%%\n",
			string(typ), res.MeanPrecision()*100, res.MeanRecall()*100, res.MeanF1()*100)
	}
	fmt.Println(strings.TrimSpace(`
paper reports 89/90% precision/recall by 10-fold cross-validation on
several entity types; the synthetic pair corpus is tuned to the same band.`))
	return nil
}

// ---- machine-readable benchmarks ---------------------------------------

// benchResult is one row of BENCH_results.json.
type benchResult struct {
	Op           string  `json:"op"`
	NsPerOp      float64 `json:"ns_per_op"`
	ItemsPerSec  float64 `json:"items_per_sec"`
	Iterations   int     `json:"iterations"`
	ItemsPerIter int     `json:"items_per_iter"`
}

// measure times n iterations of fn; items is how many result items one
// iteration produces (for the throughput figure).
func measure(op string, n int, fn func() (items int, err error)) (benchResult, error) {
	items := 0
	start := time.Now()
	for i := 0; i < n; i++ {
		var err error
		items, err = fn()
		if err != nil {
			return benchResult{}, fmt.Errorf("%s: %w", op, err)
		}
	}
	elapsed := time.Since(start)
	nsPerOp := float64(elapsed.Nanoseconds()) / float64(n)
	res := benchResult{Op: op, NsPerOp: nsPerOp, Iterations: n, ItemsPerIter: items}
	if nsPerOp > 0 {
		res.ItemsPerSec = float64(items) / (nsPerOp / 1e9)
	}
	return res, nil
}

// buildScanStore fills a sharded namespace with documents whose text field
// defeats every secondary index, so CountWhere must scan all shards. One in
// 40 documents carries the needle token.
func buildScanStore(shards int) *store.Sharded {
	s := store.NewSharded("bench.docs", "key", shards, 0)
	for i := 0; i < 8000; i++ {
		text := fmt.Sprintf("fragment %d about broadway pricing and schedules", i)
		if i%40 == 0 {
			text += " with a needle token"
		}
		s.Insert(store.NewDoc().
			Set("key", store.Str(fmt.Sprintf("k%05d", i))).
			Set("text", store.Str(text)))
	}
	return s
}

// benchClusterConfig carries the pipeline scale for the coordinator-path
// pass (non-nil enables it).
type benchClusterConfig struct {
	fragments, sources int
	seed               int64
}

// runBench times the hot query paths in-process and over HTTP (through
// the /v1 client SDK against an in-process server) and writes the rows to
// outPath. A non-nil clusterCfg adds a coordinator-path pass with all
// shard traffic over TCP.
func runBench(ctx context.Context, tm *datatamer.Tamer, n int, outPath string, clusterCfg *benchClusterConfig) error {
	header("BENCH: QUERY-PATH THROUGHPUT (in-process + /v1 over HTTP)")

	inproc := []struct {
		op string
		fn func() (int, error)
	}{
		{"core/top_discussed", func() (int, error) {
			rows, err := tm.TopDiscussed(ctx, 10)
			return len(rows), err
		}},
		{"core/type_counts", func() (int, error) {
			rows, err := tm.TypeCounts(ctx)
			return len(rows), err
		}},
		{"core/query_fused", func() (int, error) {
			_, err := tm.QueryFused(ctx, "Matilda")
			return 1, err
		}},
		{"core/show_lookup", func() (int, error) {
			ok, err := tm.ShowInFused(ctx, "Matilda")
			if err == nil && !ok {
				return 0, fmt.Errorf("Matilda missing from fused view")
			}
			return 1, err
		}},
		{"core/text_feeds", func() (int, error) {
			r, err := tm.QueryWebText(ctx, "Matilda")
			if err != nil {
				return 0, err
			}
			if !r.Has("TEXT_FEED") {
				return 0, fmt.Errorf("no text feed for Matilda")
			}
			return 1, nil
		}},
		{"core/cheapest", func() (int, error) {
			rows, err := tm.CheapestShows(ctx, 5)
			return len(rows), err
		}},
		{"core/coverage", func() (int, error) {
			rows, err := tm.FusionCoverage(ctx)
			return len(rows), err
		}},
		{"core/find", func() (int, error) {
			docs, err := tm.Find(ctx, "type = Movie")
			return len(docs), err
		}},
	}

	var results []benchResult
	for _, b := range inproc {
		res, err := measure(b.op, n, b.fn)
		if err != nil {
			return err
		}
		results = append(results, res)
	}

	// Parallel shard fan-out: an unindexed scan over a synthetic sharded
	// namespace at 1, 4, and 16 shards. The per-shard work is identical, so
	// the row ratios expose how well the router overlaps shard scans.
	for _, shards := range []int{1, 4, 16} {
		s := buildScanStore(shards)
		op := fmt.Sprintf("store/scan_%02dshard", shards)
		res, err := measure(op, n, func() (int, error) {
			got, err := s.CountWhereCtx(ctx, store.Contains("text", "needle"))
			if err == nil && got == 0 {
				err = fmt.Errorf("%s: no matches", op)
			}
			return int(got), err
		})
		if err != nil {
			return err
		}
		results = append(results, res)
	}

	// Inverted text index vs scan: the same corpus and query as
	// store/scan_04shard, but served from tokenized postings with candidate
	// verification instead of a substring sweep over every document.
	{
		s := buildScanStore(4)
		s.EnsureTextIndex("text")
		res, err := measure("store/text_indexed_04shard", n, func() (int, error) {
			got, err := s.CountWhereCtx(ctx, store.Contains("text", "needle"))
			if err == nil && got == 0 {
				err = fmt.Errorf("text_indexed: no matches")
			}
			return int(got), err
		})
		if err != nil {
			return err
		}
		results = append(results, res)
	}

	// HTTP pass: a real listener so the SDK path includes the full stack
	// (mux, envelope encoding, client decoding).
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: tm.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	c := client.New("http://" + ln.Addr().String())

	httpBenches := []struct {
		op string
		fn func() (int, error)
	}{
		{"http/v1_top", func() (int, error) {
			list, err := c.Top(ctx, client.Page{Limit: 10})
			return len(list.Items), err
		}},
		{"http/v1_types", func() (int, error) {
			list, err := c.Types(ctx, client.Page{Limit: 50})
			return len(list.Items), err
		}},
		{"http/v1_show", func() (int, error) {
			_, err := c.Show(ctx, "Matilda")
			return 1, err
		}},
		{"http/v1_cheapest", func() (int, error) {
			list, err := c.Cheapest(ctx, client.Page{Limit: 5})
			return len(list.Items), err
		}},
		{"http/v1_find", func() (int, error) {
			list, err := c.Find(ctx, "type = Movie", client.Page{Limit: 10})
			return len(list.Items), err
		}},
	}
	for _, b := range httpBenches {
		res, err := measure(b.op, n, b.fn)
		if err != nil {
			return err
		}
		results = append(results, res)
	}

	if clusterCfg != nil {
		rows, err := runClusterBench(ctx, n, clusterCfg)
		if err != nil {
			return err
		}
		results = append(results, rows...)
	}

	fmt.Printf("%-26s %14s %14s\n", "OP", "NS/OP", "ITEMS/SEC")
	for _, r := range results {
		fmt.Printf("%-26s %14.0f %14.0f\n", r.Op, r.NsPerOp, r.ItemsPerSec)
	}

	rows := make([]json.RawMessage, 0, len(results))
	for _, r := range results {
		enc, err := json.Marshal(r)
		if err != nil {
			return err
		}
		rows = append(rows, enc)
	}
	// dtload owns the load_ rows of the trajectory file; a bench rerun
	// must not wipe them (and vice versa — dtload merges around these).
	rows = append(rows, preservedLoadRows(outPath)...)

	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %d benchmark rows to %s\n", len(rows), outPath)
	return nil
}

// preservedLoadRows returns the dtload-owned rows (op prefixed "load_")
// already in the trajectory file, if any.
func preservedLoadRows(path string) []json.RawMessage {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var existing []json.RawMessage
	if json.Unmarshal(raw, &existing) != nil {
		return nil
	}
	var kept []json.RawMessage
	for _, row := range existing {
		var probe struct {
			Op string `json:"op"`
		}
		if json.Unmarshal(row, &probe) == nil && strings.HasPrefix(probe.Op, "load_") {
			kept = append(kept, row)
		}
	}
	return kept
}

// runClusterBench reruns the pipeline with every shard call routed through
// the binary wire protocol to an in-process cluster node on a real TCP
// socket, then times the same hot query paths as the core/ rows — the
// cluster/core ratio is the coordinator overhead.
func runClusterBench(ctx context.Context, n int, cc *benchClusterConfig) ([]benchResult, error) {
	header("BENCH: COORDINATOR PATH (shard traffic over TCP)")
	const shards = 4
	cfg := &cluster.Config{
		Shards: shards,
		Nodes:  []cluster.NodeSpec{{Name: "bench", Addr: "127.0.0.1:0", Shards: []int{0, 1, 2, 3}}},
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	cfg.Nodes[0].Addr = ln.Addr().String()
	node := cluster.BuildNode(cfg, &cfg.Nodes[0], false)
	go func() { _ = node.Serve(ln) }()

	ctm, err := datatamer.Open(ctx,
		datatamer.WithFragments(cc.fragments),
		datatamer.WithSources(cc.sources),
		datatamer.WithSeed(cc.seed),
		datatamer.WithClusterConfig(cfg),
	)
	if err != nil {
		return nil, fmt.Errorf("cluster pipeline: %w", err)
	}
	defer ctm.Close()

	benches := []struct {
		op string
		fn func() (int, error)
	}{
		{"cluster/top_discussed", func() (int, error) {
			rows, err := ctm.TopDiscussed(ctx, 10)
			return len(rows), err
		}},
		{"cluster/type_counts", func() (int, error) {
			rows, err := ctm.TypeCounts(ctx)
			return len(rows), err
		}},
		{"cluster/query_fused", func() (int, error) {
			_, err := ctm.QueryFused(ctx, "Matilda")
			return 1, err
		}},
		{"cluster/show_lookup", func() (int, error) {
			ok, err := ctm.ShowInFused(ctx, "Matilda")
			if err == nil && !ok {
				return 0, fmt.Errorf("Matilda missing from fused view")
			}
			return 1, err
		}},
		{"cluster/cheapest", func() (int, error) {
			rows, err := ctm.CheapestShows(ctx, 5)
			return len(rows), err
		}},
		{"cluster/find", func() (int, error) {
			docs, err := ctm.Find(ctx, "type = Movie")
			return len(docs), err
		}},
	}
	var results []benchResult
	for _, b := range benches {
		res, err := measure(b.op, n, b.fn)
		if err != nil {
			return nil, err
		}
		results = append(results, res)
	}
	return results, nil
}
