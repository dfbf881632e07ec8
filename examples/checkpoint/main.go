// Checkpoint demonstrates the durability layer: run the pipeline,
// checkpoint both sharded namespaces to disk, recover them into a second
// pipeline, and show that queries agree — plus write-ahead-log recovery
// with a torn-tail write, on the same store.Log primitive that backs the
// checkpoint, the live ingester and the cluster nodes.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	datatamer "repro"
	"repro/internal/store"
)

func main() {
	log.SetFlags(0)

	dir, err := os.MkdirTemp("", "datatamer-checkpoint")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Run, then checkpoint: one snapshot per shard — documents, extent size
	// and index layout — in an epoch directory, committed by renaming
	// checkpoint.meta into place.
	ctx := context.Background()
	tamer, err := datatamer.Open(ctx, datatamer.WithFragments(500), datatamer.WithSources(5), datatamer.WithSeed(3))
	if err != nil {
		log.Fatal(err)
	}
	snapDir := filepath.Join(dir, "stores")
	if err := tamer.SaveStoresCtx(ctx, snapDir); err != nil {
		log.Fatal(err)
	}
	before := tamer.EntityStats()
	fmt.Printf("checkpointed %d instances / %d entities to %s\n",
		tamer.InstanceStats().Count, before.Count, snapDir)

	// Recover into a second, smaller pipeline: LoadStores replaces its
	// stores wholesale.
	recovered, err := datatamer.Open(ctx, datatamer.WithFragments(50), datatamer.WithSources(5), datatamer.WithSeed(4))
	if err != nil {
		log.Fatal(err)
	}
	if err := recovered.LoadStores(ctx, snapDir); err != nil {
		log.Fatal(err)
	}
	after := recovered.EntityStats()
	fmt.Printf("recovered  %d instances / %d entities (indexes from the snapshots: %d)\n",
		recovered.InstanceStats().Count, after.Count, after.NIndexes)

	top, err := recovered.TopDiscussed(ctx, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top discussed shows from the recovered store:")
	for i, d := range top {
		fmt.Printf("  %d. %s (%d mentions)\n", i+1, d.Name, d.Mentions)
	}

	// WAL recovery with a torn tail: only complete frames replay. The owner
	// here is a bare collection whose events are whole documents.
	walDir := filepath.Join(dir, "log")
	coll := store.NewCollection("journaled", 0)
	load := func(cpDir string) error { return nil } // the demo checkpoints an empty collection
	write := func(cpDir string) error { return nil }
	apply := func(_ uint64, _ byte, payload []byte) error {
		doc, err := store.DecodeDoc(payload)
		if err == nil {
			coll.Insert(doc)
		}
		return err
	}
	lg, err := store.OpenLog(walDir, false, load, apply, write)
	if err != nil {
		log.Fatal(err)
	}
	doc := store.EncodeDoc(store.NewDoc().Set("name", store.Str("Matilda")).Set("type", store.Str("Movie")))
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
