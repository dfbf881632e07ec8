// Command datatamer is the interactive CLI over the fusion pipeline:
//
//	datatamer tables [-exp all]    # print the paper's Tables I-VI, Figs 1-3, classifier CV
//	datatamer cheapest [-k 5]      # rank shows by fused CHEAPEST_PRICE
//	datatamer find -q 'type = Movie AND name ~ walking'   # filter entities
//	datatamer explain -q 'name = Matilda'                 # show the plan
//	datatamer schema               # print the integrated global schema
//
// Global flags (before the subcommand): -fragments, -sources, -seed. The
// default scale (2000 fragments) is 1/1000 of the paper's deployment with
// proportionally scaled (2 MB) extents. tables -exp takes table1..table6,
// fig1..fig3 or classifier. Ctrl-C cancels the pipeline run mid-stage.
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
	case "tables":
		fs := flag.NewFlagSet("tables", flag.ExitOnError)
		exp := fs.String("exp", "all", "experiment to print (table1..table6, fig1, fig2, fig3, classifier, all)")
		parseOrDie(fs, args[1:])
		if err := printTables(ctx, os.Stdout, tm, tm.Stages(), *exp); err != nil {
			log.Fatal(err)
		}
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

func parseOrDie(fs *flag.FlagSet, args []string) {
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: datatamer [flags] <tables|cheapest|find|explain|schema> [subcommand flags]`)
	flag.PrintDefaults()
}
