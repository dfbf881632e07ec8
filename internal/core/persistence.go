package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"repro/dterr"
	"repro/internal/store"
)

// Store persistence: the two text namespaces as the files of one checkpoint
// directory — the operational side of the "scalable architecture" (the
// paper's deployment relied on the storage engine's own durability; ours is
// part of the reproduction). The directory protocol (epoch directories
// committed by one meta rename) is store.Log's, and the live ingester owns
// the log; this file only writes and reads the store snapshots inside one
// epoch directory. Only the shards this process holds are written: a
// remote shard belongs to its node, which persists it or not on its own
// (dtnode -data-dir), so a checkpoint neither writes nor asks anything for
// it.

// SnapshotStores writes one snapshot file per shard of both namespaces
// into cpDir, a checkpoint directory handed out by a store.Log:
// instance-<i>.snap and entity-<i>.snap, stopping between shard files
// once ctx is done. Remote shards are skipped: their nodes own them.
func (t *Tamer) SnapshotStores(ctx context.Context, cpDir string) error {
	if err := saveSharded(ctx, cpDir, "instance", t.Instances); err != nil {
		return err
	}
	return saveSharded(ctx, cpDir, "entity", t.Entities)
}

func saveSharded(ctx context.Context, dir, prefix string, s *store.Sharded) error {
	for i := 0; i < s.NumShards(); i++ {
		if err := ctx.Err(); err != nil {
			return dterr.FromContext(err)
		}
		coll := s.Shard(i)
		if coll == nil {
			continue
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-%d.snap", prefix, i))
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("core: creating %s: %w", path, err)
		}
		if err := coll.WriteSnapshot(f, 0); err != nil {
			f.Close()
			return fmt.Errorf("core: writing %s: %w", path, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("core: closing %s: %w", path, err)
		}
	}
	return nil
}

// RestoreStores reads the snapshots SnapshotStores wrote into cpDir into
// fresh namespaces under ctx. Each snapshot brings its shard's extent size
// and index layout; the receiver's shard count must match the saved one. In
// cluster mode (remote shards) there is nothing to load coordinator-side:
// the nodes hold their own documents, so RestoreStores keeps the cluster
// routing intact. Either way the data generation moves, so no response
// cached before the restore is served after it.
func (t *Tamer) RestoreStores(ctx context.Context, cpDir string) error {
	if t.Instances.NumShards() > 0 && t.Instances.Shard(0) == nil {
		t.dataGen.Add(1)
		return nil
	}
	inst, err := loadSharded(ctx, cpDir, "instance", "dt.instance", "source_url", t.cfg.Shards)
	if err != nil {
		return err
	}
	ent, err := loadSharded(ctx, cpDir, "entity", "dt.entity", "name", t.cfg.Shards)
	if err != nil {
		return err
	}
	t.Instances = inst
	t.Entities = ent
	t.Query.Instances = inst
	t.Query.Entities = ent
	// Both stores changed wholesale; reads from here on see the new ones.
	t.storesIndexed.Store(false)
	t.dataGen.Add(1)
	return nil
}

// loadSharded reads one namespace's shard snapshots, stopping between shard
// files once ctx is done.
func loadSharded(ctx context.Context, dir, prefix, ns, key string, shards int) (*store.Sharded, error) {
	backends := make([]store.ShardBackend, shards)
	for i := range backends {
		if err := ctx.Err(); err != nil {
			return nil, dterr.FromContext(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-%d.snap", prefix, i))
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("core: opening %s: %w", path, err)
		}
		loaded, err := store.ReadSnapshot(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("core: reading %s: %w", path, err)
		}
		backends[i] = store.LocalShard{Coll: loaded}
	}
	return store.NewShardedBackends(ns, key, backends)
}
