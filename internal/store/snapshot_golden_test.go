package store

import (
	"bytes"
	"fmt"
	"os"
	"testing"
)

// snapshotGolden holds WriteSnapshot(snapshotGoldenFixture()) as written by
// the collection that kept its documents in an id map and a tombstoned
// insertion order: the image must not move with the in-memory layout.
const snapshotGolden = "testdata/snapshot-pr34.bin"

// snapshotGoldenFixture is a collection with a non-default extent size, a
// hash, a B-tree and a text index, after inserts, one Update and one
// Delete.
func snapshotGoldenFixture() *Collection {
	c := NewCollection("dt.entity", 4096)
	c.EnsureIndex("type_1", "type", HashIndex)
	c.EnsureIndex("name_1", "name", BTreeIndex)
	c.EnsureTextIndex("name")
	for i := 0; i < 12; i++ {
		typ := []string{"Movie", "Person", "Company"}[i%3]
		c.Insert(entityDoc(fmt.Sprintf("Show %02d walking", i), typ, int64(i)))
	}
	c.Insert(codecFixture())
	c.Update(4, entityDoc("Show 04 renamed", "Person", 400))
	c.Delete(7)
	return c
}

func TestSnapshotBytesMatchPR34(t *testing.T) {
	golden, err := os.ReadFile(snapshotGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got := snapshotBytes(t, snapshotGoldenFixture()); !bytes.Equal(got, golden) {
		t.Errorf("WriteSnapshot(snapshotGoldenFixture()) = %x\nwant %x", got, golden)
	}
	c, err := ReadSnapshot(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	if got := snapshotBytes(t, c); !bytes.Equal(got, golden) {
		t.Errorf("re-writing the loaded golden = %x\nwant %x", got, golden)
	}
}
