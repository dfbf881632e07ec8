package store

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"testing"

	"repro/internal/record"
)

// snapshotGolden holds an image written by the collection that kept its
// documents in an id map and a tombstoned insertion order and could still
// update and delete them: thirteen inserts, an update of id 4 and a delete
// of id 7. The image must not move with the in-memory layout.
const snapshotGolden = "testdata/snapshot-pr34.bin"

// zonedInsertBytes is what the golden's extents took for id 13 beyond the
// size of the document it holds. The collection that wrote the golden was
// handed a document whose fields were still Go values, and sized its zoned
// time by a rendering with its offset ("-05:00"); the codec keeps the
// instant, so the document reads its time back in UTC and renders it with
// "Z", 5 bytes shorter. A document is its encoding now, so no document
// sizes the way that one did, and the golden's figure is stated here.
const zonedInsertBytes = 5

// snapshotGoldenExpected is the collection the golden holds, built with
// ApplyReplay: a non-default extent size, a hash, a B-tree and a text
// index, ids 1 to 13 but 7, and under id 4 the document the update put
// there. Its extents hold what the thirteen inserts took and what the
// update grew the document by.
func snapshotGoldenExpected(t *testing.T) *Collection {
	t.Helper()
	c := NewCollection("dt.entity", 4096)
	c.EnsureIndex(IndexSpec{Name: "type_1", Path: "type", Kind: HashIndex})
	c.EnsureIndex(IndexSpec{Name: "name_1", Path: "name", Kind: BTreeIndex})
	c.EnsureIndex(IndexSpec{Path: "name", Kind: TextIndex})
	var allocated int64
	for i := 0; i < 12; i++ {
		typ := []string{"Movie", "Person", "Company"}[i%3]
		d := entityDoc(fmt.Sprintf("Show %02d walking", i), typ, int64(i))
		allocated += d.SizeBytes()
		id := int64(i + 1)
		switch id {
		case 4:
			renamed := entityDoc("Show 04 renamed", "Person", 400)
			allocated += max(renamed.SizeBytes()-d.SizeBytes(), 0)
			d = renamed
		case 7:
			continue
		}
		if err := c.ApplyReplay(id, d); err != nil {
			t.Fatal(err)
		}
	}
	last := codecFixture()
	allocated += last.SizeBytes() + zonedInsertBytes
	if err := c.ApplyReplay(13, last); err != nil {
		t.Fatal(err)
	}
	c.allocated = allocated
	return c
}

// TestSnapshotBytesMatchPR34: the golden loads to the collection it holds —
// its ids, documents, index layout, plans, Stats and next id — and writes
// the same bytes again.
func TestSnapshotBytesMatchPR34(t *testing.T) {
	golden, err := os.ReadFile(snapshotGolden)
	if err != nil {
		t.Fatal(err)
	}
	c, err := ReadSnapshot(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	if got := snapshotBytes(t, c); !bytes.Equal(got, golden) {
		t.Errorf("re-writing the loaded golden = %x\nwant %x", got, golden)
	}
	want := snapshotGoldenExpected(t)
	ids, docs := members(c)
	if wantIDs := []int64{1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13}; !slices.Equal(ids, wantIDs) {
		t.Fatalf("the golden holds ids %v, want %v", ids, wantIDs)
	}
	_, wantDocs := members(want)
	for i, d := range docs {
		if !bytes.Equal(EncodeDoc(d), EncodeDoc(wantDocs[i])) {
			t.Errorf("id %d holds %v, want %v", ids[i], d, wantDocs[i])
		}
	}
	if got, want := layoutOf(c), layoutOf(want); !slices.Equal(got, want) {
		t.Errorf("layout %q, want %q", got, want)
	}
	for _, f := range []Filter{EqStr("type", "Person"), Cond{Path: "name", Op: OpPrefix, Value: record.String("Show 0")}, Contains("name", "walking")} {
		if got, want := explain(c, f), explain(want, f); got != want {
			t.Errorf("plan of %v = %+v, want %+v", f, got, want)
		}
		if got, want := fmt.Sprint(find(c, f)), fmt.Sprint(find(want, f)); got != want {
			t.Errorf("%v finds %s, want %s", f, got, want)
		}
	}
	if got, want := c.Stats(), want.Stats(); got != want {
		t.Errorf("stats %+v, want %+v", got, want)
	}
	if c.nextID != want.nextID {
		t.Errorf("next id %d, want %d", c.nextID, want.nextID)
	}
}
