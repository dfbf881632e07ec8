// Command benchmark is the repository's benchmark: one run of one workload
// from a single process. It builds the system the way the facade's Open does,
// so that it holds a handle on every layer, drives a closed loop with one
// client goroutine over a seed-determined op sequence, checks the outputs,
// and prints every metric by name and unit, the last line as one JSON object.
//
//	bash benchmark/run.sh --workload read_local --seed 1 --seconds 18 --trace 0
//
// See README.md in this directory.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		cfg       config
		trace     int
		selfcheck bool
		runs      int
		golden    bool
	)
	flag.StringVar(&cfg.workload, "workload", "", "batch_fuse, read_local, live_mixed or cluster_read")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the corpus and of the op sequence")
	flag.Float64Var(&cfg.seconds, "seconds", 18, "length of the measured phase")
	flag.IntVar(&cfg.ops, "ops", 0, "measure exactly this many ops instead of -seconds")
	flag.IntVar(&trace, "trace", 0, "1: record spans and print the per-layer metrics; 0: print the end-to-end metrics")
	flag.StringVar(&cfg.outDir, "out", "benchmark/out", "directory for traces and temporary files")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run every workload in two interleaved sets and compare them")
	flag.IntVar(&runs, "runs", 3, "with -selfcheck: runs per set and workload")
	flag.BoolVar(&golden, "write-golden", false, "print golden.json for seeds 1 to 32 and exit")
	flag.Parse()
	cfg.trace = trace == 1

	var err error
	switch {
	case trace != 0 && trace != 1:
		err = fmt.Errorf("-trace must be 0 or 1")
	case golden:
		err = writeGolden(context.Background(), os.Stdout)
	case selfcheck:
		err = runSelfcheck(cfg, runs, os.Stdout)
	default:
		err = runOne(context.Background(), cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne runs one workload and prints its result. A run that could not be
// measured prints no result; a run whose outputs were wrong prints
// "correct": false and the failed ops.
func runOne(ctx context.Context, cfg config) error {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return err
	}
	if cfg.seconds <= 0 && cfg.ops <= 0 {
		return fmt.Errorf("-seconds or -ops must be positive")
	}
	res, defs, err := w.run(ctx, cfg, os.Stdout)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	return res.print(os.Stdout, defs)
}
