package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	datatamer "repro"
)

var update = flag.Bool("update", false, "rewrite the goldens under testdata/ from this run")

// TestTablesGolden pins what `datatamer tables` prints at the default scale
// and seed: one golden per -exp value, and "all" as their concatenation.
// Fig. 1's durations are wall time, so its stage rows go in zeroed; every
// other cell is compared as printed.
func TestTablesGolden(t *testing.T) {
	ctx := context.Background()
	tm, err := datatamer.Open(ctx) // Open's defaults are the CLI's flag defaults
	if err != nil {
		t.Fatal(err)
	}
	stages := append([]datatamer.StageReport(nil), tm.Stages()...)
	for i := range stages {
		stages[i].Duration = 0
	}
	render := func(exp string) []byte {
		var buf bytes.Buffer
		if err := printTables(ctx, &buf, tm, stages, exp); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	var all []byte
	for _, e := range experiments {
		got := render(e.name)
		path := filepath.Join("testdata", e.name+".golden")
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("-exp %s differs from %s (rerun with -update if intended)\ngot:\n%s\nwant:\n%s", e.name, path, got, want)
		}
		all = append(all, want...)
	}
	if got := render("all"); !bytes.Equal(got, all) {
		t.Errorf("-exp all is not the goldens in order:\n%s", got)
	}
	if err := printTables(ctx, new(bytes.Buffer), tm, stages, "table7"); err == nil {
		t.Error("unknown experiment accepted")
	}
}
