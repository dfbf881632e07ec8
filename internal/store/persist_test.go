package store

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/record"
)

func richDoc() *Doc {
	return NewDoc().
		Set("name", Str("Matilda")).
		Set("count", Num(42)).
		Set("score", Scalar(record.Float(0.93))).
		Set("live", Scalar(record.Bool(true))).
		Set("opened", Scalar(record.Time(time.Date(2013, 3, 4, 19, 0, 0, 0, time.UTC)))).
		Set("missing", Scalar(record.Null)).
		Set("nested", Nested(NewDoc().Set("inner", Str("value")))).
		Set("list", List(Str("a"), Num(2), Nested(NewDoc().Set("deep", Str("x")))))
}

func TestCodecRoundTrip(t *testing.T) {
	d := richDoc()
	data := EncodeDoc(d)
	back, err := DecodeDoc(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != d.Len() {
		t.Fatalf("field count %d vs %d", back.Len(), d.Len())
	}
	if back.String() != d.String() {
		t.Errorf("round trip mismatch:\n%s\n%s", d, back)
	}
	// Scalar kinds preserved, not just string renderings.
	v, _ := back.Path("count")
	if v.Scalar().Kind() != record.KindInt {
		t.Errorf("count kind = %v", v.Scalar().Kind())
	}
	v, _ = back.Path("opened")
	if v.Scalar().Kind() != record.KindTime {
		t.Errorf("opened kind = %v", v.Scalar().Kind())
	}
	tm, _ := v.Scalar().AsTime()
	if tm.Hour() != 19 {
		t.Errorf("time payload = %v", tm)
	}
}

func TestCodecEmptyDoc(t *testing.T) {
	back, err := DecodeDoc(EncodeDoc(NewDoc()))
	if err != nil || back.Len() != 0 {
		t.Fatalf("empty doc: %v, %v", back, err)
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, // huge count
		{2, 1, 'a'},    // truncated
		{1, 1, 'a', 9}, // bad tag
	} {
		if _, err := DecodeDoc(data); err == nil {
			t.Errorf("DecodeDoc(%v) should fail", data)
		}
	}
	// Trailing bytes rejected.
	good := EncodeDoc(NewDoc().Set("a", Num(1)))
	if _, err := DecodeDoc(append(good, 0)); err == nil {
		t.Error("trailing bytes should fail")
	}
}

// FuzzDecodeDoc: bytes from disk or the wire never panic the decoder, and
// whatever decodes re-encodes to bytes that decode to the same encoding.
func FuzzDecodeDoc(f *testing.F) {
	rich := EncodeDoc(richDoc())
	golden := EncodeDoc(codecFixture())
	for _, seed := range [][]byte{rich, rich[:len(rich)/2], EncodeDoc(NewDoc()), {1, 1, 'a', 2, 0}, {2, 1, 'a', 0, 0, 1, 'a', 0, 4, 7}, golden} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeDoc(data)
		if err != nil {
			return
		}
		enc := EncodeDoc(d)
		back, err := DecodeDoc(enc)
		if err != nil {
			t.Fatalf("re-decode of %x: %v", enc, err)
		}
		if again := EncodeDoc(back); !bytes.Equal(again, enc) {
			t.Fatalf("unstable round trip: %x then %x", enc, again)
		}
	})
}

// Property: encode/decode round-trips documents with arbitrary string
// fields.
func TestQuickCodecRoundTrip(t *testing.T) {
	f := func(names, vals []string) bool {
		d := NewDoc()
		for i, n := range names {
			if n == "" {
				continue
			}
			v := ""
			if i < len(vals) {
				v = vals[i]
			}
			d.Set(n, Str(v))
		}
		back, err := DecodeDoc(EncodeDoc(d))
		return err == nil && back.String() == d.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	c := newCollection("dt.test", 4096)
	var ids []int64
	for i := 0; i < 50; i++ {
		ids = append(ids, c.Insert(entityDoc(fmt.Sprintf("E%03d", i), "Movie", int64(i))))
	}
	c.Delete(ids[10])

	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NS() != "dt.test" {
		t.Errorf("ns = %q", loaded.NS())
	}
	if loaded.Count() != 49 {
		t.Errorf("count = %d", loaded.Count())
	}
	if _, ok := get(loaded, ids[10]); ok {
		t.Error("deleted doc resurrected")
	}
	d, ok := get(loaded, ids[20])
	if !ok || d.PathString("name") != "E020" {
		t.Errorf("doc 20 = %v, %v", d, ok)
	}
	// New inserts continue past the loaded id space.
	newID := loaded.Insert(entityDoc("new", "Movie", 1))
	if newID <= ids[len(ids)-1] {
		t.Errorf("nextID not restored: %d", newID)
	}
	// Indexes can still be added after load.
	loaded.EnsureIndex("name_1", "name", HashIndex)
	if got := len(find(loaded, EqStr("name", "E020"))); got != 1 {
		t.Errorf("indexed find after load = %d", got)
	}
}

// TestWriteSnapshotAllocBudget pins the checkpoint's mechanism: entries go
// through one reused buffer, so what a snapshot allocates does not grow with
// the documents it holds.
func TestWriteSnapshotAllocBudget(t *testing.T) {
	for _, n := range []int{1000, 4000} {
		c := newCollection("dt.test", 0)
		for i := 0; i < n; i++ {
			c.Insert(entityDoc(fmt.Sprintf("E%04d", i), "Movie", int64(i)))
		}
		c.Insert(richDoc())
		allocs := testing.AllocsPerRun(5, func() {
			if err := c.WriteSnapshot(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 16 {
			t.Errorf("WriteSnapshot of %d documents allocates %.0f objects, budget 16", n, allocs)
		}
	}
}

// TestPutDocFields: the projected encoding is the encoding of the projected
// document, sized by SizeBytesOf, and an empty list is the whole document.
func TestPutDocFields(t *testing.T) {
	d := richDoc()
	for _, fields := range [][]string{nil, {}, {"name"}, {"list", "name", "gone", "name"}, {"gone"}, {"nested", "missing"}} {
		want := NewDoc()
		for _, name := range d.Names() {
			if v, _ := d.Get(name); len(fields) == 0 || slices.Contains(fields, name) {
				want.Set(name, v)
			}
		}
		var got bytes.Buffer
		PutDocFields(&got, d, fields)
		if !bytes.Equal(got.Bytes(), EncodeDoc(want)) {
			t.Errorf("fields %v: encoded %q, the projected document encodes %q", fields, got.Bytes(), EncodeDoc(want))
		}
		if d.SizeBytesOf(fields) != want.SizeBytes() {
			t.Errorf("fields %v: SizeBytesOf %d, the projected document's SizeBytes %d", fields, d.SizeBytesOf(fields), want.SizeBytes())
		}
	}
}

// TestPutRecordMatchesPutDoc: over every value kind, PutRecord writes the
// bytes of the document FromRecord builds.
func TestPutRecordMatchesPutDoc(t *testing.T) {
	r := record.New()
	r.Set("SHOW_NAME", record.String("Matilda"))
	r.Set("EMPTY", record.String(""))
	r.Set("SEATS", record.Int(-1450))
	r.Set("RATING", record.Float(4.5))
	r.Set("OPEN", record.Bool(true))
	r.Set("CLOSED", record.Bool(false))
	r.Set("FIRST", record.Time(time.Date(2013, 3, 4, 19, 0, 0, 0, time.UTC)))
	r.Set("NOTES", record.Null)
	for n := 0; n <= r.Len(); n++ {
		part := record.New()
		for _, f := range r.Fields()[:n] {
			part.Set(f.Name, f.Value)
		}
		var got bytes.Buffer
		PutRecord(&got, part)
		if want := EncodeDoc(FromRecord(part)); !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%v: PutRecord wrote %q, PutDoc(FromRecord) %q", part, got.Bytes(), want)
		}
	}
}

// TestEventLogAppendFrames: Append writes the frame writeFrame makes of the
// sequence number, kind and payload, and allocates nothing once its writer's
// buffer is in place.
func TestEventLogAppendFrames(t *testing.T) {
	var buf bytes.Buffer
	l, err := NewEventLogAt(&buf, 127)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.NewBufferString(eventMagic)
	for i, payload := range []string{"", "a", strings.Repeat("payload ", 600)} {
		if _, err := l.Append(byte(i+1), []byte(payload)); err != nil {
			t.Fatal(err)
		}
		var frame bytes.Buffer
		PutUvarint(&frame, uint64(127+i))
		frame.WriteByte(byte(i + 1))
		frame.WriteString(payload)
		if err := writeFrame(want, frame.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want.Bytes()) {
		t.Errorf("log bytes %q, want %q", buf.Bytes(), want.Bytes())
	}

	l, _ = NewEventLog(io.Discard)
	payload := bytes.Repeat([]byte{7}, 300)
	if allocs := testing.AllocsPerRun(100, func() { l.Append(2, payload) }); allocs != 0 {
		t.Errorf("Append allocates %.1f objects, want 0", allocs)
	}
}

func TestSnapshotBadMagic(t *testing.T) {
	if _, err := ReadSnapshot(bytes.NewReader([]byte("NOTASNAP"))); err == nil {
		t.Error("bad magic should fail")
	}
	if _, err := ReadSnapshot(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream should fail")
	}
}

func BenchmarkEncodeDoc(b *testing.B) {
	d := richDoc()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EncodeDoc(d)
	}
}

func BenchmarkDecodeDoc(b *testing.B) {
	data := EncodeDoc(richDoc())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeDoc(data); err != nil {
			b.Fatal(err)
		}
	}
}

func TestEventLogRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	l, err := NewEventLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := l.Append(1, []byte("alpha"))
	s2, _ := l.Append(2, []byte("beta"))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if s1 != 1 || s2 != 2 {
		t.Fatalf("seqs = %d, %d", s1, s2)
	}

	type ev struct {
		seq     uint64
		kind    byte
		payload string
	}
	var got []ev
	stats, err := ReplayEventLog(bytes.NewReader(buf.Bytes()), 0, func(seq uint64, kind byte, payload []byte) error {
		got = append(got, ev{seq, kind, string(payload)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Applied != 2 || stats.Skipped != 0 || stats.LastSeq != 2 || stats.Truncated {
		t.Errorf("stats = %+v", stats)
	}
	want := []ev{{1, 1, "alpha"}, {2, 2, "beta"}}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestEventLogSkipsCheckpointed(t *testing.T) {
	var buf bytes.Buffer
	l, _ := NewEventLog(&buf)
	l.Append(1, []byte("a"))
	l.Append(1, []byte("b"))
	l.Append(1, []byte("c"))
	l.Flush()

	var applied []string
	stats, err := ReplayEventLog(bytes.NewReader(buf.Bytes()), 2, func(_ uint64, _ byte, payload []byte) error {
		applied = append(applied, string(payload))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Applied != 1 || stats.Skipped != 2 || stats.LastSeq != 3 {
		t.Errorf("stats = %+v", stats)
	}
	if len(applied) != 1 || applied[0] != "c" {
		t.Errorf("applied = %v", applied)
	}
}

func TestEventLogTornTail(t *testing.T) {
	var buf bytes.Buffer
	l, _ := NewEventLog(&buf)
	l.Append(1, []byte("kept"))
	l.Append(1, []byte("torn"))
	l.Flush()
	data := buf.Bytes()[:buf.Len()-3]

	var applied int
	stats, err := ReplayEventLog(bytes.NewReader(data), 0, func(uint64, byte, []byte) error {
		applied++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Truncated || applied != 1 || stats.LastSeq != 1 {
		t.Errorf("stats = %+v, applied = %d", stats, applied)
	}

	// Empty and torn-header event logs also recover cleanly.
	if stats, err := ReplayEventLog(bytes.NewReader(nil), 0, nil); err != nil || stats.Truncated {
		t.Errorf("empty log: stats %+v, err %v", stats, err)
	}
	if stats, err := ReplayEventLog(bytes.NewReader([]byte(eventMagic[:4])), 0, nil); err != nil || !stats.Truncated {
		t.Errorf("torn header: stats %+v, err %v", stats, err)
	}
	// A full-length header of another format holds no events either.
	if stats, err := ReplayEventLog(bytes.NewReader([]byte(snapshotMagic)), 0, nil); err != nil || !stats.Truncated {
		t.Errorf("foreign header: stats %+v, err %v", stats, err)
	}
}
