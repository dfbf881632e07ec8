// Command dtlint runs the project's custom static analyzers — the
// invariants generic tools cannot see — over package patterns:
//
//	go run ./cmd/dtlint ./...
//
// The pattern ./... also loads every module nested below the directory
// (benchmark/), so one run lints both modules. deadcheck runs only for
// ./... at a module root; a narrower load lints without it.
//
// Analyzers (see internal/analysis for the full invariant statements):
//
//	dterrcheck   boundary errors must carry dterr codes; no string matching
//	ctxcheck     contexts must be threaded, never minted or stored mid-path
//	metriccheck  constant dt_-prefixed metric names, bounded label values
//	lockcheck    no I/O, sends, or cross-package calls under store/cluster locks
//	deadcheck    nothing under internal/ that no non-test code reaches
//
// A finding is suppressed by a directive on its line or the line above:
//
//	//lint:dtlint-allow <analyzer> <reason>
//
// Undocumented exemptions are impossible: the reason is mandatory, unused
// directives are findings themselves, and the curated allowlists live in
// the analyzer sources where review sees them. Exit status: 0 clean, 1
// findings, 2 usage or load failure.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/ctxcheck"
	"repro/internal/analysis/deadcheck"
	"repro/internal/analysis/dterrcheck"
	"repro/internal/analysis/load"
	"repro/internal/analysis/lockcheck"
	"repro/internal/analysis/metriccheck"
)

// All is the dtlint analyzer suite, in output order.
var All = []*analysis.Analyzer{
	dterrcheck.Analyzer,
	ctxcheck.Analyzer,
	metriccheck.Analyzer,
	lockcheck.Analyzer,
	deadcheck.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of main: lint patterns relative to dir ".".
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dtlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("run", "", "comma-separated analyzer names to run (default: all)")
	dir := fs.String("C", ".", "change to `dir` before resolving patterns")
	list := fs.Bool("list", false, "list analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range All {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, strings.SplitN(a.Doc, "\n", 2)[0])
		}
		return 0
	}

	analyzers := All
	if *only != "" {
		byName := make(map[string]*analysis.Analyzer, len(All))
		for _, a := range All {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "dtlint: unknown analyzer %q\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	// deadcheck's roots are the code outside internal/, so only ./... at a
	// module root loads enough of the program to tell what is dead.
	if _, err := os.Stat(filepath.Join(*dir, "go.mod")); err != nil || !slices.Equal(patterns, []string{"./..."}) {
		if *only != "" && slices.Contains(analyzers, deadcheck.Analyzer) {
			fmt.Fprintln(stderr, "dtlint: deadcheck needs the whole program: run it on ./... at a module root")
			return 2
		}
		analyzers = slices.DeleteFunc(slices.Clone(analyzers), func(a *analysis.Analyzer) bool { return a == deadcheck.Analyzer })
	}
	pkgs, err := load.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "dtlint: %v\n", err)
		return 2
	}
	findings, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "dtlint: %v\n", err)
		return 2
	}
	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "dtlint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
