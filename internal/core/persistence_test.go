package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestSaveLoadStores(t *testing.T) {
	dir := t.TempDir()
	tm := New(Config{Fragments: 150, FTSources: 3, Shards: 3, Seed: 4})
	if err := tm.IngestWebText(context.Background()); err != nil {
		t.Fatal(err)
	}
	wantInst := tm.InstanceStats()
	wantEnt := tm.EntityStats()
	wantTop, err := tm.TopDiscussed(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}

	if err := tm.SnapshotStores(context.Background(), dir); err != nil {
		t.Fatal(err)
	}
	// 3 shards per namespace → 6 snapshot files.
	files, err := filepath.Glob(filepath.Join(dir, "*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 6 {
		t.Fatalf("snapshot files = %v", files)
	}

	// Recover into a fresh pipeline.
	fresh := New(Config{Fragments: 150, FTSources: 3, Shards: 3, Seed: 4})
	// A cancelled caller stops the restore instead of rebuilding every
	// index first.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := fresh.RestoreStores(cancelled, dir); !errors.Is(err, context.Canceled) {
		t.Fatalf("RestoreStores under a cancelled ctx = %v, want context.Canceled", err)
	}
	// The restore moves the data generation, so no response cached before
	// it is served after it.
	gen := fresh.DataGeneration()
	if err := fresh.RestoreStores(context.Background(), dir); err != nil {
		t.Fatal(err)
	}
	if got := fresh.DataGeneration(); got <= gen {
		t.Errorf("data generation after the restore = %d, was %d", got, gen)
	}
	gotInst := fresh.InstanceStats()
	gotEnt := fresh.EntityStats()
	if gotInst.Count != wantInst.Count || gotInst.NS != wantInst.NS {
		t.Errorf("instance stats after load = %+v, want %+v", gotInst, wantInst)
	}
	if gotEnt.Count != wantEnt.Count {
		t.Errorf("entity count after load = %d, want %d", gotEnt.Count, wantEnt.Count)
	}
	// Indexes were rebuilt: 8 on entities.
	if gotEnt.NIndexes != 8 {
		t.Errorf("entity nindexes after load = %d", gotEnt.NIndexes)
	}
	// Queries over the recovered store agree.
	gotTop, err := fresh.TopDiscussed(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotTop) != len(wantTop) {
		t.Fatalf("ranking length %d vs %d", len(gotTop), len(wantTop))
	}
	for i := range wantTop {
		if gotTop[i] != wantTop[i] {
			t.Errorf("ranking[%d] = %+v, want %+v", i, gotTop[i], wantTop[i])
		}
	}
}

func TestRestoreStoresMissingDir(t *testing.T) {
	tm := New(Config{Fragments: 10, FTSources: 1, Seed: 1})
	if err := tm.RestoreStores(context.Background(), filepath.Join(os.TempDir(), "does-not-exist-dtamer")); err == nil {
		t.Error("restoring from a missing directory should fail")
	}
}

// TestSnapshotStoresCancelled: SnapshotStores honours its context between
// shard files — /v1/flush?checkpoint=1 carries a request context all the
// way to the store snapshot — so a cancelled snapshot writes no file.
func TestSnapshotStoresCancelled(t *testing.T) {
	tm := New(Config{Fragments: 10, FTSources: 1, Seed: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dir := t.TempDir()
	if err := tm.SnapshotStores(ctx, dir); !errors.Is(err, context.Canceled) {
		t.Fatalf("SnapshotStores with cancelled ctx = %v, want context.Canceled", err)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != 0 {
		t.Errorf("a cancelled SnapshotStores wrote %v", files)
	}
}
