package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"runtime"
	"slices"
	"testing"

	"repro/internal/record"
)

// layoutFixture is a collection with a non-default extent size, a hash, a
// B-tree and a text index, tombstoned ids (the last one among them) and an
// updated document — everything a snapshot must carry besides documents.
func layoutFixture() *Collection {
	c := NewCollection("dt.entity", 4096)
	c.EnsureIndex("type_1", "type", HashIndex)
	c.EnsureIndex("name_1", "name", BTreeIndex)
	c.EnsureTextIndex("name")
	var ids []int64
	for i := 0; i < 60; i++ {
		typ := []string{"Movie", "Person", "Company"}[i%3]
		ids = append(ids, c.Insert(entityDoc(fmt.Sprintf("Show %02d walking", i), typ, int64(i))))
	}
	c.Insert(richDoc())
	for _, i := range []int{3, 17, 18, 59} {
		c.Delete(ids[i])
	}
	c.Update(ids[5], entityDoc("Show 05 renamed", "Person", 500))
	c.Delete(c.Insert(entityDoc("gone", "Movie", 0))) // the highest id is a tombstone too
	return c
}

func snapshotBytes(t testing.TB, c *Collection) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf); err != nil {
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

// TestSnapshotRefusesMalformed: a bad layout, an id outside the header's id
// space, an old format and bytes past the last document are errors, never a
// silently different collection.
func TestSnapshotRefusesMalformed(t *testing.T) {
	base := NewCollection("dt.x", 0)
	base.EnsureIndex("a_1", "a", HashIndex)
	base.Insert(NewDoc().Set("a", Num(1)))
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
		PutDoc(&b, NewDoc().Set("a", Num(id)))
		sealFrame(&b, 0)
		return b.Bytes()
	}
	if _, err := ReadSnapshot(bytes.NewReader(append(header(layout(3, 1)), docFrame(2)...))); err != nil {
		t.Fatalf("hand-built snapshot refused: %v", err)
	}
	cases := map[string][]byte{
		"old format":         append([]byte("DTSNAP1\n"), good[len(snapshotMagic):]...),
		"unknown kind":       header(layout(1, 0, [3]any{"a_1", "a", 7})),
		"index twice":        header(layout(1, 0, [3]any{"a_1", "a", 0}, [3]any{"a_1", "b", 1})),
		"zero next id":       header(layout(0, 0)),
		"short layout":       header(func(b *bytes.Buffer) { layout(1, 0)(b); b.Truncate(b.Len() - 1) }),
		"trailing layout":    header(func(b *bytes.Buffer) { layout(1, 0)(b); b.WriteByte(0) }),
		"id past next id":    append(header(layout(3, 1)), docFrame(3)...),
		"tombstone id":       append(header(layout(3, 1)), docFrame(0)...),
		"id twice":           append(header(layout(3, 2)), append(docFrame(1), docFrame(1)...)...),
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
	for _, n := range []int{frameChunk - 1, frameChunk, frameChunk + 1, 3*frameChunk + 7} {
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
// multiple of its size, and whatever loads writes an image that loads to a
// collection writing the same image with the same Stats. The seeds are the
// files under testdata/fuzz/FuzzReadSnapshot, one of them the image of
// layoutFixture.
func FuzzReadSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var c *Collection
		var err error
		if grew := allocDuring(func() { c, err = ReadSnapshot(bytes.NewReader(data)) }); grew > allocBound(len(data)) {
			t.Fatalf("%d input bytes allocated %d bytes", len(data), grew)
		}
		if err != nil {
			return
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
func allocBound(n int) uint64 { return frameChunk + 1<<20 + 4096*uint64(n) }
