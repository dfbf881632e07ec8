package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/store"
)

// Node-local durability: each hosted shard can be backed by a store.Log
// directory — the same WAL + checkpoint-by-rename protocol the live
// ingester uses — whose checkpoints hold the shard's snapshot (documents,
// extent size and index layout in one image) and whose WAL holds every
// mutation since, a write or a pull's. WAL sequence numbers ARE shard
// generations, so "the WAL replayed through seq G" and "the shard is at
// generation G" are the same statement — a follower's pull, the read fence
// and recovery all count the same counter, and the checkpoint fence is the
// generation the checkpoint captured. Appends are flushed, not fsynced:
// state survives a process kill, like the live WAL's by default.

const shardSnapName = "shard.snap"

// shardDirName maps a shard key ("dt.entity/2") to a directory name.
func shardDirName(key string) string {
	return strings.ReplaceAll(key, "/", "-")
}

// openShardLog recovers one shard from its directory under root:
// checkpoint snapshot (when one committed), then the WAL tail replayed
// over it. Without a checkpoint, fallback (the node's freshly built empty
// collection) receives the replay. Returns the log, open for appends, with
// the recovered collection; the recovered generation is the log's
// NextSeq()-1.
func openShardLog(root, key string, fallback *store.Collection) (*store.Log, *store.Collection, error) {
	coll := fallback
	load := func(cpDir string) error {
		f, err := os.Open(filepath.Join(cpDir, shardSnapName))
		if err != nil {
			return err
		}
		defer f.Close()
		coll, err = store.ReadSnapshot(f)
		return err
	}
	apply := func(_ uint64, kind byte, payload []byte) error { return applyEvent(coll, kind, payload) }
	write := func(cpDir string) error { return writeShardCheckpoint(coll, cpDir) }
	lg, err := store.OpenLog(filepath.Join(root, shardDirName(key)), false, load, apply, write)
	if err != nil {
		return nil, nil, err
	}
	return lg, coll, nil
}

// writeShardCheckpoint fills one checkpoint directory of a shard log: the
// shard's snapshot.
func writeShardCheckpoint(c *store.Collection, cpDir string) error {
	f, err := os.Create(filepath.Join(cpDir, shardSnapName))
	if err != nil {
		return err
	}
	err = c.WriteSnapshot(f, 0)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("cluster: shard snapshot: %w", err)
	}
	return nil
}

// applyEvent applies one shard WAL event to a collection, as a node's
// recovery replays it. A retired kind, an update or a delete, is refused
// by name; a text index's creation as an older build logged it, kind 5,
// is applied.
func applyEvent(c *store.Collection, kind byte, payload []byte) error {
	switch kind {
	case EvInsert:
		id, d, err := store.DecodeIDDoc(payload)
		if err != nil {
			return err
		}
		return c.ApplyReplay(id, d)
	case EvCreateIndex:
		// Bytes after the spec are not refused here, as handleWrite now
		// refuses them: an older build logged such a body whole, and its
		// WAL must still recover.
		ix, err := store.GetIndexSpec(bytes.NewReader(payload))
		if err != nil {
			return err
		}
		c.EnsureIndex(ix)
	case 5:
		path, err := store.GetString(bytes.NewReader(payload))
		if err != nil {
			return err
		}
		c.EnsureIndex(store.IndexSpec{Path: path, Kind: store.TextIndex})
	case 2:
		return errors.New("cluster: replication event kind 2 (update) is retired: the store only appends")
	case 3:
		return errors.New("cluster: replication event kind 3 (delete) is retired: the store only appends")
	default:
		return fmt.Errorf("cluster: unknown replication event kind %d", kind)
	}
	return nil
}
