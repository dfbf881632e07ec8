// Command dtgen materializes the synthetic datasets to disk so they can be
// inspected or fed to other tools:
//
//	dtgen -out ./data -fragments 2000 -sources 20 -seed 1
//
// It writes webtext.tsv (URL <tab> fragment) and one CSV per FTABLES source.
package main

import (
	"bufio"
	"encoding/csv"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/datagen"
	"repro/internal/ingest"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dtgen: ")
	out := flag.String("out", "./data", "output directory")
	fragments := flag.Int("fragments", 2000, "web-text fragments")
	sources := flag.Int("sources", 20, "structured sources")
	seed := flag.Int64("seed", 1, "deterministic seed")
	flag.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}
	if err := writeWebText(*out, *fragments, *seed); err != nil {
		log.Fatal(err)
	}
	srcs := datagen.GenerateFTables(datagen.FTablesConfig{Sources: *sources, Seed: *seed})
	for _, src := range srcs {
		if err := writeSourceCSV(*out, src); err != nil {
			log.Fatalf("writing %s: %v", src.Name, err)
		}
	}
	fmt.Printf("wrote webtext.tsv and %d source CSVs to %s\n", len(srcs), *out)
}

// writeWebText writes the corpus as the generator streams it, one window
// at a time, so the command holds a window of it, not the corpus.
func writeWebText(dir string, fragments int, seed int64) error {
	f, err := os.Create(filepath.Join(dir, "webtext.tsv"))
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	corpus := datagen.NewWebText(datagen.WebTextConfig{Fragments: fragments, Seed: seed})
	for win := corpus.Next(datagen.Window); len(win) > 0; win = corpus.Next(datagen.Window) {
		for _, frag := range win {
			w.WriteString(frag.URL)
			w.WriteByte('\t')
			w.WriteString(frag.Text)
			w.WriteByte('\n')
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Sync()
}

func writeSourceCSV(dir string, src *ingest.Source) error {
	f, err := os.Create(filepath.Join(dir, src.Name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	attrs := src.Attributes()
	if err := w.Write(attrs); err != nil {
		return err
	}
	row := make([]string, len(attrs))
	for _, r := range src.Records {
		for i, a := range attrs {
			row[i] = r.GetString(a)
		}
		if err := w.Write(row); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}
