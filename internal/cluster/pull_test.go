package cluster

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/store"
)

// pullPrimary is the collection a fuzzed follower replicates: a secondary
// and a text index over three documents, then whatever grow adds.
func pullPrimary(grow func(c *store.Collection)) *store.Collection {
	c := store.NewCollection(NSEntities, 256)
	c.EnsureIndex(store.IndexSpec{Name: "name_1", Path: "name", Kind: store.BTreeIndex})
	c.EnsureIndex(store.IndexSpec{Path: "text", Kind: store.TextIndex})
	for i := 0; i < 3; i++ {
		c.Insert(store.NewDoc(store.F("name", store.Str(fmt.Sprintf("Show %d", i))), store.F("text", store.Str("a walk in the park"))))
	}
	if grow != nil {
		grow(c)
	}
	return c
}

// imageAbove is c's image above id above, as a primary answers a pull.
func imageAbove(t testing.TB, c *store.Collection, above int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf, above); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzApplyPull: no pull answer, whatever its generation and body, panics
// a follower's apply; a refused one leaves the follower's image and
// generation as they were, and an applied one lands the follower on the
// generation the answer carried, with an image that loads. The follower
// holds pullPrimary's shard at generation 5. The seeds are an image that
// adds nothing, one that adds an index, one that adds a document, a torn
// image, an image with the wrong generation, and one that adds an index
// and starts at an id the follower holds.
func FuzzApplyPull(f *testing.F) {
	withIndex := pullPrimary(func(c *store.Collection) {
		c.EnsureIndex(store.IndexSpec{Name: "type_1", Path: "type", Kind: store.HashIndex})
	})
	withDoc := pullPrimary(func(c *store.Collection) { c.Insert(store.NewDoc(store.F("name", store.Str("Matilda")))) })
	withBoth := pullPrimary(func(c *store.Collection) {
		c.EnsureIndex(store.IndexSpec{Name: "type_1", Path: "type", Kind: store.HashIndex})
		c.Insert(store.NewDoc(store.F("name", store.Str("Matilda"))))
	})
	whole, tail := imageAbove(f, pullPrimary(nil), 0), imageAbove(f, withDoc, 3)
	f.Add(uint64(5), imageAbove(f, pullPrimary(nil), 3))
	f.Add(uint64(6), imageAbove(f, withIndex, 3))
	f.Add(uint64(6), tail)
	f.Add(uint64(6), tail[:len(tail)-5])
	f.Add(uint64(7), tail)
	f.Add(uint64(8), imageAbove(f, withBoth, 2)) // an index, ids 3 and 4: the generation fits, the ids do not
	f.Fuzz(func(t *testing.T, gen uint64, body []byte) {
		h := &hostedShard{coll: store.NewCollection(NSEntities, 0)}
		if err := h.applyPull(5, whole); err != nil {
			t.Fatal(err)
		}
		before := imageAbove(t, h.coll, 0)
		if err := h.applyPull(gen, body); err != nil {
			if h.gen != 5 || !bytes.Equal(imageAbove(t, h.coll, 0), before) {
				t.Fatalf("a refused pull (%v) left the follower at generation %d, or changed its image", err, h.gen)
			}
			return
		}
		if h.gen != gen {
			t.Fatalf("an applied pull left the follower at generation %d, the answer carried %d", h.gen, gen)
		}
		if _, err := store.ReadSnapshot(bytes.NewReader(imageAbove(t, h.coll, 0))); err != nil {
			t.Fatalf("after an applied pull the follower's image does not load: %v", err)
		}
	})
}

// TestDurableFollowerCrashAtEveryByte: a durable follower that dies at any
// byte of what one pull appended to its shard WAL — a new index and three
// documents — comes back as a prefix of that pull, at the generation its
// WAL's last event carries, and its next pull completes it to its
// primary's image.
func TestDurableFollowerCrashAtEveryByte(t *testing.T) {
	ctx := context.Background()
	key := ShardKey(NSEntities, 0)
	primary := NewNode("p")
	primary.AddShard(key, store.NewCollection(NSEntities, 0))
	shard := NewRemoteShard(NSEntities, 0, Loopback{Node: primary}, nil)
	insert := func(names ...string) {
		for _, name := range names {
			if _, err := shard.Insert(ctx, store.NewDoc(store.F("name", store.Str(name)))); err != nil {
				t.Fatal(err)
			}
		}
	}
	openFollower := func(dir string) *Node {
		t.Helper()
		n := newFollowerNode("f")
		n.AddShard(key, store.NewCollection(NSEntities, 0))
		if err := n.EnableDurability(dir); err != nil {
			t.Fatal(err)
		}
		return n
	}
	pull := func(n *Node) {
		t.Helper()
		if err := NewFollower(n, Loopback{Node: primary}, time.Hour).PullOnce(); err != nil {
			t.Fatal(err)
		}
	}

	dir := t.TempDir()
	wal := filepath.Join(dir, shardDirName(key), store.LogWALFile)
	follower := openFollower(dir)
	insert("a", "b")
	pull(follower)
	st, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := shard.CreateIndex(ctx, store.IndexSpec{Name: "by_name", Path: "name", Kind: store.BTreeIndex}); err != nil {
		t.Fatal(err)
	}
	insert("c", "d", "e")
	pull(follower)
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	pc, pGen := primary.shard(key).view()
	want := snapshotOf(t, pc)

	for cut := int(st.Size()); cut <= len(full); cut++ {
		torn := filepath.Join(t.TempDir(), "torn")
		if err := os.CopyFS(torn, os.DirFS(dir)); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(torn, shardDirName(key), store.LogWALFile), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		revived := openFollower(torn)
		h := revived.shard(key)
		h.mu.Lock()
		coll, gen, next := h.coll, h.gen, h.dur.NextSeq()
		h.mu.Unlock()
		// The pull logged the index, then c, d and e: generations 3 to 6.
		wantDocs, wantIndexes := int64(2+max(0, int(gen)-3)), 0
		if gen >= 3 {
			wantIndexes = 1
		}
		if gen < 2 || gen > pGen || gen != next-1 || coll.Count() != wantDocs || coll.Stats().NIndexes != wantIndexes {
			t.Fatalf("cut at byte %d of %d: generation %d (WAL next %d), %d documents, %d indexes; want a prefix of the pull",
				cut, len(full), gen, next, coll.Count(), coll.Stats().NIndexes)
		}
		pull(revived)
		coll, gen = h.view()
		if gen != pGen || !bytes.Equal(snapshotOf(t, coll), want) {
			t.Fatalf("cut at byte %d: the next pull left generation %d (primary %d) and an image equal to the primary's: %v",
				cut, gen, pGen, bytes.Equal(snapshotOf(t, coll), want))
		}
		if err := revived.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
