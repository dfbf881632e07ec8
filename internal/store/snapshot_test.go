package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/record"
)

// layoutFixture is a collection with a non-default extent size, a hash, a
// B-tree and a text index, and ids missing where replays jumped them —
// everything a snapshot must carry besides documents.
func layoutFixture() *Collection {
	c := NewCollection("dt.entity", 4096)
	c.EnsureIndex(IndexSpec{Name: "type_1", Path: "type", Kind: HashIndex})
	c.EnsureIndex(IndexSpec{Name: "name_1", Path: "name", Kind: BTreeIndex})
	c.EnsureIndex(IndexSpec{Path: "name", Kind: TextIndex})
	var id int64
	for i := 0; i < 60; i++ {
		typ := []string{"Movie", "Person", "Company"}[i%3]
		d := entityDoc(fmt.Sprintf("Show %02d walking", i), typ, int64(i))
		if i == 3 || i == 17 || i == 59 {
			id += 2
			if err := c.ApplyReplay(id, d); err != nil {
				panic(err)
			}
			continue
		}
		id = c.Insert(d)
	}
	c.Insert(richDoc())
	return c
}

func snapshotBytes(t testing.TB, c *Collection) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf, 0); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// layoutOf renders a collection's index layout.
func layoutOf(c *Collection) []string {
	var out []string
	for _, ix := range c.indexes {
		out = append(out, fmt.Sprintf("%s %s %s %d", ix.Name, ix.Path, ix.Kind, ix.entries))
	}
	for _, tx := range c.text {
		out = append(out, "text "+tx.Path)
	}
	slices.Sort(out)
	return out
}

// TestSnapshotCarriesLayout: what a snapshot reads back is the collection
// that wrote it — its index layout, Stats (extents included), query plans,
// documents under their ids in their order, and the next id — and it writes
// the same bytes again.
func TestSnapshotCarriesLayout(t *testing.T) {
	c := layoutFixture()
	data := snapshotBytes(t, c)
	back, err := ReadSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := layoutOf(back), layoutOf(c); !slices.Equal(got, want) {
		t.Errorf("layout %q, want %q", got, want)
	}
	if got, want := back.Stats(), c.Stats(); got != want {
		t.Errorf("stats %+v, want %+v", got, want)
	}
	if st := back.Stats(); st.NumExtents < 2 {
		t.Errorf("fixture spans %d extents; it should span several", st.NumExtents)
	}
	for _, f := range []Filter{EqStr("type", "Movie"), Cond{Path: "name", Op: OpPrefix, Value: record.String("Show 1")}, Contains("name", "walking")} {
		if got, want := explain(back, f), explain(c, f); got != want {
			t.Errorf("plan of %v = %+v, want %+v", f, got, want)
		}
		if got, want := back.Query(Query{Filter: f}).Total, c.Query(Query{Filter: f}).Total; got != want {
			t.Errorf("%v matches %d, want %d", f, got, want)
		}
	}
	wantIDs, wantDocs := members(c)
	gotIDs, gotDocs := members(back)
	if got, want := fmt.Sprint(gotIDs, gotDocs), fmt.Sprint(wantIDs, wantDocs); got != want {
		t.Errorf("documents %q, want %q", got, want)
	}
	if again := snapshotBytes(t, back); !bytes.Equal(again, data) {
		t.Error("the loaded collection writes different bytes")
	}
	if got, want := back.Insert(NewDoc()), c.Insert(NewDoc()); got != want {
		t.Errorf("next insert gets id %d, want %d", got, want)
	}
}

// TestImageAboveAnID: the image above an id is the whole header — the
// extent size and the index layout among it — and the documents above that
// id, each with the frame it came in: its 8-byte id, then its encoding.
// Above 0 it is the whole snapshot, and above the last id the layout alone.
// Read above an id it carries, it is refused.
func TestImageAboveAnID(t *testing.T) {
	c := layoutFixture()
	ids, docs := members(c)
	layout := []IndexSpec{
		{Name: "name_1", Path: "name", Kind: BTreeIndex},
		{Name: "type_1", Path: "type", Kind: HashIndex},
		{Path: "name", Kind: TextIndex},
	}
	for _, above := range []int64{0, 1, ids[3] - 1, ids[3], ids[40], ids[len(ids)-1] - 1, ids[len(ids)-1], math.MaxInt64} {
		var buf bytes.Buffer
		if err := c.WriteSnapshot(&buf, above); err != nil {
			t.Fatal(err)
		}
		img, err := ReadImage(bytes.NewReader(buf.Bytes()), above)
		if err != nil {
			t.Fatalf("above %d: %v", above, err)
		}
		if len(img.Docs) > 0 {
			if _, err := ReadImage(bytes.NewReader(buf.Bytes()), img.Docs[0].ID); err == nil {
				t.Errorf("above %d: read above id %d, the image's first, it was not refused", above, img.Docs[0].ID)
			}
		}
		if img.ExtentSize != 4096 || !slices.Equal(img.Layout, layout) {
			t.Errorf("above %d: extent size %d, layout %+v; want 4096, %+v", above, img.ExtentSize, img.Layout, layout)
		}
		first, _ := slices.BinarySearch(ids, above+1)
		if above == math.MaxInt64 {
			first = len(ids)
		}
		if len(img.Docs) != len(ids)-first {
			t.Fatalf("above %d: %d documents, want %d", above, len(img.Docs), len(ids)-first)
		}
		for i, d := range img.Docs {
			want := binary.LittleEndian.AppendUint64(nil, uint64(ids[first+i]))
			frame := EncodeIDDoc(d.ID, d.Doc)
			if d.ID != ids[first+i] || !bytes.Equal(frame, append(want, EncodeDoc(docs[first+i])...)) || fmt.Sprint(d.Doc) != fmt.Sprint(docs[first+i]) {
				t.Fatalf("above %d: document %d is id %d, frame %x", above, i, d.ID, frame)
			}
		}
		if above == 0 && !bytes.Equal(buf.Bytes(), snapshotBytes(t, c)) {
			t.Error("the image above 0 is not the snapshot")
		}
	}
}

// TestSnapshotRefusesMalformed: a bad layout, an id outside the header's id
// space or not above the one before it, an old format and bytes past the
// last document are errors, never a silently different collection.
func TestSnapshotRefusesMalformed(t *testing.T) {
	base := NewCollection("dt.x", 0)
	base.EnsureIndex(IndexSpec{Name: "a_1", Path: "a", Kind: HashIndex})
	base.Insert(NewDoc(F("a", Num(1))))
	good := snapshotBytes(t, base)
	if _, err := ReadSnapshot(bytes.NewReader(good)); err != nil {
		t.Fatal(err)
	}
	// header re-frames a snapshot whose header payload was edited by fn.
	header := func(fn func(*bytes.Buffer)) []byte {
		var b bytes.Buffer
		b.WriteString(snapshotMagic)
		var hdr bytes.Buffer
		hdr.Write(make([]byte, 4))
		fn(&hdr)
		sealFrame(&hdr, 0)
		b.Write(hdr.Bytes())
		return b.Bytes()
	}
	layout := func(nextID, count uint64, indexes ...[3]any) func(*bytes.Buffer) {
		return func(b *bytes.Buffer) {
			PutString(b, "dt.x")
			PutUvarint(b, 4096)
			PutUvarint(b, 0)
			PutUvarint(b, nextID)
			PutUvarint(b, count)
			PutUvarint(b, uint64(len(indexes)))
			for _, ix := range indexes {
				PutString(b, ix[0].(string))
				PutString(b, ix[1].(string))
				PutUvarint(b, uint64(ix[2].(int)))
			}
			PutUvarint(b, 0)
		}
	}
	docFrame := func(id int64) []byte {
		var b bytes.Buffer
		var reserved [4 + 8]byte
		binary.LittleEndian.PutUint64(reserved[4:], uint64(id))
		b.Write(reserved[:])
		PutDoc(&b, NewDoc(F("a", Num(id))))
		sealFrame(&b, 0)
		return b.Bytes()
	}
	if _, err := ReadSnapshot(bytes.NewReader(append(header(layout(3, 1)), docFrame(2)...))); err != nil {
		t.Fatalf("hand-built snapshot refused: %v", err)
	}
	cases := map[string][]byte{
		"old format":         append([]byte("DTSNAP1\n"), good[len(snapshotMagic):]...),
		"unknown kind":       header(layout(1, 0, [3]any{"a_1", "a", 7})),
		"text as secondary":  header(layout(1, 0, [3]any{"", "a", 2})),
		"index twice":        header(layout(1, 0, [3]any{"a_1", "a", 0}, [3]any{"a_1", "b", 1})),
		"zero next id":       header(layout(0, 0)),
		"short layout":       header(func(b *bytes.Buffer) { layout(1, 0)(b); b.Truncate(b.Len() - 1) }),
		"trailing layout":    header(func(b *bytes.Buffer) { layout(1, 0)(b); b.WriteByte(0) }),
		"id past next id":    append(header(layout(3, 1)), docFrame(3)...),
		"zero id":            append(header(layout(3, 1)), docFrame(0)...),
		"id twice":           append(header(layout(3, 2)), append(docFrame(1), docFrame(1)...)...),
		"descending ids":     append(header(layout(3, 2)), append(docFrame(2), docFrame(1)...)...),
		"missing document":   header(layout(3, 1)),
		"after the last":     append(slices.Clone(good), 0),
		"document cut":       good[:len(good)-1],
		"header crc flipped": func() []byte { b := slices.Clone(good); b[len(snapshotMagic)+5] ^= 1; return b }(),
	}
	for name, data := range cases {
		if _, err := ReadSnapshot(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// allocDuring reports the bytes fn allocates.
func allocDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestFrameClaimCostsItsBytes: a frame header claiming a gigabyte in an
// input of a few dozen bytes fails without allocating the claim — the
// readers see bytes from the network as well as from disk.
func TestFrameClaimCostsItsBytes(t *testing.T) {
	claim := []byte{0xff, 0xff, 0xff, 0x3f} // 1 GiB - 1
	event := append([]byte(eventMagic), claim...)
	event = append(event, "abcd"...)
	var hdr bytes.Buffer
	PutString(&hdr, "dt.entity")
	for _, n := range []uint64{4096, 0, 2, 1, 0, 0} {
		PutUvarint(&hdr, n)
	}
	snap := append([]byte(snapshotMagic), make([]byte, 4)...)
	binary.LittleEndian.PutUint32(snap[len(snapshotMagic):], uint32(hdr.Len()))
	snap = append(snap, hdr.Bytes()...)
	snap = binary.LittleEndian.AppendUint32(snap, crc32.ChecksumIEEE(hdr.Bytes()))
	snap = append(snap, claim...)
	snap = append(snap, make([]byte, 45-len(snap))...)
	if len(event) != 16 || len(snap) != 45 {
		t.Fatalf("inputs are %d and %d bytes", len(event), len(snap))
	}
	grew := allocDuring(func() {
		stats, err := ReplayEventLog(bytes.NewReader(event), 0, func(uint64, byte, []byte) error { return nil })
		if err != nil || !stats.Truncated {
			t.Errorf("replay = %+v, %v; want a truncated log", stats, err)
		}
	})
	if grew >= 1<<20 {
		t.Errorf("ReplayEventLog over %d bytes allocated %d bytes", len(event), grew)
	}
	grew = allocDuring(func() {
		if _, err := ReadSnapshot(bytes.NewReader(snap)); err == nil {
			t.Error("snapshot with a 1 GiB document frame accepted")
		}
	})
	if grew >= 1<<20 {
		t.Errorf("ReadSnapshot over %d bytes allocated %d bytes", len(snap), grew)
	}
}

// TestLongFrameRoundTrip: a frame longer than the first chunk of its
// payload still reads back whole.
func TestLongFrameRoundTrip(t *testing.T) {
	for _, n := range []int{FrameChunk - 1, FrameChunk, FrameChunk + 1, 3*FrameChunk + 7} {
		payload := bytes.Repeat([]byte{byte(n)}, n)
		var buf bytes.Buffer
		if err := WriteFrame(&buf, payload); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFrame(bufio.NewReader(bytes.NewReader(buf.Bytes())), 0)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("%d-byte frame: %d bytes back, %v", n, len(got), err)
		}
		if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(buf.Bytes()[:buf.Len()-5])), 0); err == nil {
			t.Fatalf("%d-byte frame cut short read back", n)
		}
	}
}

// FuzzReadSnapshot: no input panics the reader or costs more than a bounded
// multiple of its size, ReadImage refuses what it refuses and reads the
// same documents and layout from the rest, and whatever loads writes an
// image that loads to a collection writing the same image with the same
// Stats. The seeds are the
// files under testdata/fuzz/FuzzReadSnapshot, one of them the image of a
// layoutFixture with updated and deleted documents, which an older build
// wrote, and seed-08 a two-document image with its ids descending.
func FuzzReadSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var c *Collection
		var err error
		if grew := allocDuring(func() { c, err = ReadSnapshot(bytes.NewReader(data)) }); grew > allocBound(len(data)) {
			t.Fatalf("%d input bytes allocated %d bytes", len(data), grew)
		}
		img, ierr := ReadImage(bytes.NewReader(data), 0)
		if (ierr == nil) != (err == nil) {
			t.Fatalf("ReadSnapshot says %v, ReadImage %v", err, ierr)
		}
		if err != nil {
			return
		}
		if ids, _ := members(c); len(img.Docs) != len(ids) || len(img.Layout) != len(c.indexes)+len(c.text) || len(c.MissingIndexes(img.Layout)) != 0 {
			t.Fatalf("ReadImage read %d documents and layout %+v; ReadSnapshot %d and %v", len(img.Docs), img.Layout, len(ids), layoutOf(c))
		}
		image := snapshotBytes(t, c)
		back, err := ReadSnapshot(bytes.NewReader(image))
		if err != nil {
			t.Fatalf("re-read of a written image: %v", err)
		}
		if again := snapshotBytes(t, back); !bytes.Equal(again, image) {
			t.Fatalf("unstable image: %x then %x", image, again)
		}
		if back.Stats() != c.Stats() {
			t.Fatalf("stats %+v, then %+v", c.Stats(), back.Stats())
		}
	})
}

// FuzzReplayEventLog: no input panics the replay, fails it, or costs more
// than a bounded multiple of its size; the events it delivers, written out
// again, replay to the same events; and a replay after any fence delivers
// exactly the events above it. The seeds are the files under
// testdata/fuzz/FuzzReplayEventLog.
func FuzzReplayEventLog(f *testing.F) {
	type event struct {
		seq     uint64
		kind    byte
		payload string
	}
	replay := func(t *testing.T, data []byte, after uint64) ([]event, EventReplayStats) {
		var got []event
		stats, err := ReplayEventLog(bytes.NewReader(data), after, func(seq uint64, kind byte, payload []byte) error {
			got = append(got, event{seq, kind, string(payload)})
			return nil
		})
		if err != nil {
			t.Fatalf("replay failed: %v", err)
		}
		return got, stats
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var all []event
		var stats EventReplayStats
		if grew := allocDuring(func() { all, stats = replay(t, data, 0) }); grew > allocBound(len(data)) {
			t.Fatalf("%d input bytes allocated %d bytes", len(data), grew)
		}
		var again bytes.Buffer
		again.WriteString(eventMagic)
		for _, ev := range all {
			var frame bytes.Buffer
			PutUvarint(&frame, ev.seq)
			frame.WriteByte(ev.kind)
			frame.WriteString(ev.payload)
			if err := WriteFrame(&again, frame.Bytes()); err != nil {
				t.Fatal(err)
			}
		}
		if back, backStats := replay(t, again.Bytes(), 0); !slices.Equal(back, all) || backStats.Truncated || backStats.LastSeq != stats.LastSeq {
			t.Fatalf("re-written log replays %v (%+v), want %v", back, backStats, all)
		}
		fence := stats.LastSeq / 2
		above, fenced := replay(t, data, fence)
		want := slices.DeleteFunc(slices.Clone(all), func(ev event) bool { return ev.seq <= fence })
		if !slices.Equal(above, want) || fenced.Skipped+fenced.Applied != len(all) {
			t.Fatalf("after fence %d: %v (%+v), want %v", fence, above, fenced, want)
		}
	})
}

// allocBound is what reading n bytes may allocate: one frame's first chunk,
// slack for the runtime, and a fixed multiple of the input — decoded
// documents and rebuilt indexes outweigh their encoding, never a length a
// header merely claims.
func allocBound(n int) uint64 { return FrameChunk + 1<<20 + 4096*uint64(n) }

// TestZonedTimeSizesSurviveSnapshot: a document is its encoding from the
// moment it is built, so a zoned time reads back as its UTC instant at
// once, and a collection holding one sizes it alike before a snapshot and
// after it is read back.
func TestZonedTimeSizesSurviveSnapshot(t *testing.T) {
	zoned := time.Date(2013, 3, 4, 19, 30, 15, 250_000_000, time.FixedZone("", -5*3600))
	d := NewDoc(F("name", Str("Matilda")), F("opened", Scalar(record.Time(zoned))))
	if v, _ := d.Path("opened"); v.Scalar() != record.Time(zoned.UTC()) {
		t.Fatalf("opened reads %v, want the UTC instant %v", v, zoned.UTC())
	}
	c := NewCollection("dt.zoned", 0)
	c.Insert(d)
	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf, 0); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	before, after := c.Stats(), loaded.Stats()
	if before.DataSize != after.DataSize || before.AvgObjSize != after.AvgObjSize {
		t.Errorf("stats before the snapshot %+v, after %+v", before, after)
	}
	_, docs := members(loaded)
	if len(docs) != 1 || docs[0].SizeBytes() != d.SizeBytes() {
		t.Errorf("read back as %v, sized %d; built sized %d", docs, docs[0].SizeBytes(), d.SizeBytes())
	}
}
