// Checkpoint demonstrates the durability layer: open a live pipeline,
// ingest into it, close it — which checkpoints the stores and the fused
// view's members — reopen it from the same directory, and check that the
// reopened pipeline answers every read as the first one did; plus
// write-ahead-log recovery with a torn-tail write, on the same store.Log
// primitive that backs the live ingester and the cluster nodes. It exits
// non-zero when the reopened pipeline's reads differ.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	datatamer "repro"
	"repro/internal/record"
	"repro/internal/store"
)

const show = "Midnight Harbor"

func main() {
	log.SetFlags(0)

	dir, err := os.MkdirTemp("", "datatamer-checkpoint")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Run, ingest, then Close: the checkpoint holds one snapshot per shard —
	// documents, extent size and index layout — and the fused view's
	// members in an epoch directory, committed by renaming checkpoint.meta
	// into place.
	ctx := context.Background()
	liveDir := filepath.Join(dir, "live")
	open := func() *datatamer.Tamer {
		tamer, err := datatamer.Open(ctx, datatamer.WithFragments(500), datatamer.WithSources(5),
			datatamer.WithSeed(3), datatamer.WithLive(liveDir))
		if err != nil {
			log.Fatal(err)
		}
		return tamer
	}
	tamer := open()
	err = tamer.IngestText(ctx, []datatamer.Fragment{{URL: "http://feeds.example.com/reviews/1",
		Text: show + " an award-winning import from London, grossed 412,765, or 88 percent of the maximum."}})
	if err != nil {
		log.Fatal(err)
	}
	rec := record.New()
	rec.Set("SHOW_NAME", record.String(show))
	rec.Set("THEATER", record.String("Lyceum Theatre"))
	rec.Set("CHEAPEST_PRICE", record.Int(19))
	if err := tamer.IngestRecords(ctx, "ticketing_feed", []*datatamer.Record{rec}); err != nil {
		log.Fatal(err)
	}
	if err := tamer.Flush(ctx); err != nil {
		log.Fatal(err)
	}
	want := reads(ctx, tamer)
	if err := tamer.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpointed %d instances / %d entities and %d fused records to %s\n",
		tamer.InstanceStats().Count, tamer.EntityStats().Count, len(tamer.FusedRecords()), liveDir)

	// Reopen from the same directory: Open loads the checkpoint instead of
	// re-ingesting the batch web text, and the stores come back with their
	// indexes.
	recovered := open()
	defer recovered.Close()
	got := reads(ctx, recovered)
	if got != want {
		log.Fatalf("the reopened pipeline reads\n%s\nthe original read\n%s", got, want)
	}
	fmt.Printf("reopened: every read agrees with the original pipeline's:\n%s", got)

	// WAL recovery with a torn tail: only complete frames replay. The owner
	// here is a bare collection whose events are whole documents.
	walDir := filepath.Join(dir, "log")
	coll := store.NewCollection("journaled", 0)
	load := func(cpDir string) error { return nil } // the demo checkpoints an empty collection
	write := func(cpDir string) error { return nil }
	apply := func(_ uint64, _ byte, payload []byte) error {
		doc, err := store.AdoptDoc(payload)
		if err == nil {
			coll.Insert(doc)
		}
		return err
	}
	lg, err := store.OpenLog(walDir, false, load, apply, write)
	if err != nil {
		log.Fatal(err)
	}
	doc := store.EncodeDoc(store.NewDoc(store.F("name", store.Str("Matilda")), store.F("type", store.Str("Movie"))))
	for i := 0; i < 2; i++ {
		if _, err := lg.Append(1, doc); err != nil {
			log.Fatal(err)
		}
	}
	if err := lg.Close(); err != nil {
		log.Fatal(err)
	}
	wal := filepath.Join(walDir, store.LogWALFile)
	st, err := os.Stat(wal)
	if err != nil {
		log.Fatal(err)
	}
	if err := os.Truncate(wal, st.Size()-7); err != nil { // simulate a crash mid-write
		log.Fatal(err)
	}
	lg, err = store.OpenLog(walDir, false, load, apply, write)
	if err != nil {
		log.Fatal(err)
	}
	defer lg.Close()
	rep := lg.Recovered()
	fmt.Printf("wal replay after torn write: %d events applied, truncated=%v, count=%d\n",
		rep.Applied, rep.Truncated, coll.Count())
}

// reads renders what a reader of the pipeline sees: both stores' stats, the
// entity types, the most discussed and cheapest shows, and the ingested
// show's fused record.
func reads(ctx context.Context, tamer *datatamer.Tamer) string {
	var b strings.Builder
	fmt.Fprintf(&b, "  instances %+v\n  entities  %+v\n", tamer.InstanceStats(), tamer.EntityStats())
	types, err := tamer.TypeCounts(ctx)
	if err != nil {
		log.Fatal(err)
	}
	top, err := tamer.TopDiscussed(ctx, 3)
	if err != nil {
		log.Fatal(err)
	}
	cheapest, err := tamer.CheapestShows(ctx, 3)
	if err != nil {
		log.Fatal(err)
	}
	fused, err := tamer.QueryFused(ctx, show)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(&b, "  types     %v\n  top       %v\n  cheapest  %v\n%s", types, top, cheapest,
		datatamer.FormatKV(fused, nil))
	return b.String()
}
