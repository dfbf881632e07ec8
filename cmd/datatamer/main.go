// Command datatamer is the interactive CLI over the fusion pipeline:
//
//	datatamer run                  # run the full pipeline, print a summary
//	datatamer stats                # print Tables I-II store statistics
//	datatamer types                # print the Table III type distribution
//	datatamer top [-k 10]          # print the Table IV discussion ranking
//	datatamer query -show Matilda  # print Table V then Table VI for a show
//	datatamer cheapest [-k 5]      # rank shows by fused CHEAPEST_PRICE
//	datatamer find -q 'type = Movie AND name ~ walking'   # filter entities
//	datatamer explain -q 'name = Matilda'                 # show the plan
//	datatamer schema               # print the integrated global schema
//
// Global flags (before the subcommand): -fragments, -sources, -seed.
// Ctrl-C cancels the pipeline run mid-stage.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	datatamer "repro"
	"repro/internal/fuse"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("datatamer: ")

	fragments := flag.Int("fragments", 2000, "web-text fragments to generate")
	sources := flag.Int("sources", 20, "structured FTABLES sources")
	seed := flag.Int64("seed", 1, "deterministic seed")
	flag.Parse()

	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	tm, err := datatamer.Open(ctx,
		datatamer.WithFragments(*fragments),
		datatamer.WithSources(*sources),
		datatamer.WithSeed(*seed),
	)
	if err != nil {
		log.Fatal(err)
	}

	switch args[0] {
	case "run":
		cmdRun(tm)
	case "stats":
		fmt.Println(tm.InstanceStats().FormatShell())
		fmt.Println()
		fmt.Println(tm.EntityStats().FormatShell())
	case "types":
		rows, err := tm.TypeCounts(ctx)
		if err != nil {
			log.Fatal(err)
		}
		for _, row := range rows {
			fmt.Printf("%-18s %8d\n", row.Type, row.Count)
		}
	case "top":
		fs := flag.NewFlagSet("top", flag.ExitOnError)
		k := fs.Int("k", 10, "ranking size")
		parseOrDie(fs, args[1:])
		rows, err := tm.TopDiscussed(ctx, *k)
		if err != nil {
			log.Fatal(err)
		}
		for i, d := range rows {
			fmt.Printf("%2d. %-28s %6d mentions\n", i+1, d.Name, d.Mentions)
		}
	case "query":
		fs := flag.NewFlagSet("query", flag.ExitOnError)
		show := fs.String("show", "Matilda", "show to look up")
		parseOrDie(fs, args[1:])
		web, err := tm.QueryWebText(ctx, *show)
		if err != nil {
			log.Fatal(err)
		}
		fused, err := tm.QueryFused(ctx, *show)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("-- from web text only --")
		fmt.Print(datatamer.FormatKV(web, []string{"SHOW_NAME", "TEXT_FEED"}))
		fmt.Println("\n-- fused with structured sources --")
		fmt.Print(datatamer.FormatKV(fused, fuse.TableVIOrder))
	case "cheapest":
		fs := flag.NewFlagSet("cheapest", flag.ExitOnError)
		k := fs.Int("k", 5, "ranking size")
		parseOrDie(fs, args[1:])
		rows, err := tm.CheapestShows(ctx, *k)
		if err != nil {
			log.Fatal(err)
		}
		for i, p := range rows {
			fmt.Printf("%2d. %-28s %s\n", i+1, p.Show, p.Raw)
		}
	case "find":
		fs := flag.NewFlagSet("find", flag.ExitOnError)
		q := fs.String("q", "", "filter expression, e.g. 'type = Movie AND name ~ walking'")
		limit := fs.Int("limit", 10, "max documents to print")
		parseOrDie(fs, args[1:])
		docs, err := tm.Find(ctx, *q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%d matching entities\n", len(docs))
		for i, d := range docs {
			if i >= *limit {
				fmt.Printf("... and %d more\n", len(docs)-*limit)
				break
			}
			fmt.Println(d)
		}
	case "explain":
		fs := flag.NewFlagSet("explain", flag.ExitOnError)
		q := fs.String("q", "", "filter expression")
		parseOrDie(fs, args[1:])
		ex, err := tm.ExplainFind(ctx, *q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("access path: %s\n", ex.AccessPath)
		if ex.IndexName != "" {
			fmt.Printf("index:       %s (%s)\n", ex.IndexName, ex.IndexKind)
		}
		fmt.Printf("reason:      %s\n", ex.Reason)
	case "schema":
		for _, a := range tm.SchemaAttributes() {
			fmt.Printf("%-24s %-8s sources=%d samples=%d\n",
				a.Name, a.Kind, len(a.Sources), len(a.Samples))
		}
	default:
		usage()
		os.Exit(2)
	}
}

func cmdRun(tm *datatamer.Tamer) {
	fmt.Println("pipeline complete")
	for _, s := range tm.Stages() {
		fmt.Printf("  %-20s %8d items  %12s\n", s.Stage, s.Items, s.Duration.Round(1000))
	}
	inst, ent := tm.InstanceStats(), tm.EntityStats()
	fmt.Printf("instances: %d (%d extents, %d index)\n", inst.Count, inst.NumExtents, inst.NIndexes)
	fmt.Printf("entities:  %d (%d extents, %d indexes)\n", ent.Count, ent.NumExtents, ent.NIndexes)
	fmt.Printf("global schema: %d attributes; consolidated records: %d\n",
		tm.SchemaLen(), len(tm.FusedRecords()))
}

func parseOrDie(fs *flag.FlagSet, args []string) {
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: datatamer [flags] <run|stats|types|top|query|cheapest|find|explain|schema> [subcommand flags]`)
	flag.PrintDefaults()
}
