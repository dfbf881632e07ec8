package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

// The crash suite for the one durable log. Its owner, seqOwner, is the
// simplest state a Log can protect: the list of event payloads applied so
// far. Every check below reduces to "what recovered is exactly a prefix of
// what was acknowledged, at least as long as the crash allows".

type seqOwner struct {
	t      *testing.T
	events []string
}

// The state is written twice so that load can tell a checkpoint assembled
// from two different writes (a mix) from a whole one.
var seqFiles = []string{"state-a", "state-b"}

func (o *seqOwner) write(cpDir string) error {
	data := []byte(strings.Join(o.events, "\n"))
	for _, name := range seqFiles {
		if err := os.WriteFile(filepath.Join(cpDir, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func (o *seqOwner) load(cpDir string) error {
	entries, err := os.ReadDir(cpDir)
	if err != nil {
		return err
	}
	if len(entries) != len(seqFiles) {
		return fmt.Errorf("checkpoint dir holds %d files, want %d", len(entries), len(seqFiles))
	}
	a, err := os.ReadFile(filepath.Join(cpDir, seqFiles[0]))
	if err != nil {
		return err
	}
	b, err := os.ReadFile(filepath.Join(cpDir, seqFiles[1]))
	if err != nil {
		return err
	}
	if string(a) != string(b) {
		return fmt.Errorf("checkpoint is a mix: %q vs %q", a, b)
	}
	o.events = nil
	if len(a) > 0 {
		o.events = strings.Split(string(a), "\n")
	}
	return nil
}

// apply insists on receiving exactly the next sequence number, so a
// double-applied, skipped or reordered event fails the test at once.
func (o *seqOwner) apply(seq uint64, kind byte, payload []byte) error {
	if want := uint64(len(o.events) + 1); seq != want || kind != 7 {
		o.t.Errorf("apply got seq %d kind %d, want seq %d kind 7", seq, kind, want)
	}
	o.events = append(o.events, string(payload))
	return nil
}

func (o *seqOwner) open(dir string) (*Log, error) {
	return OpenLog(dir, false, o.load, o.apply, o.write)
}

// payloadAt is event i's payload; lengths vary so frames do not align.
func payloadAt(i int) string { return fmt.Sprintf("event-%03d-%s", i, strings.Repeat("x", i*7%23)) }

// appendN acknowledges n more events, returning each one's end offset in
// the WAL file.
func (o *seqOwner) appendN(l *Log, n int) []int64 {
	o.t.Helper()
	var ends []int64
	for i := 0; i < n; i++ {
		p := payloadAt(len(o.events) + 1)
		seq, err := l.Append(7, []byte(p))
		if err != nil {
			o.t.Fatal(err)
		}
		o.events = append(o.events, p)
		if seq != uint64(len(o.events)) {
			o.t.Fatalf("append returned seq %d, want %d", seq, len(o.events))
		}
		ends = append(ends, l.Stats().WALSizeBytes)
	}
	return ends
}

func (o *seqOwner) checkpoint(l *Log) {
	o.t.Helper()
	if err := l.Checkpoint(l.NextSeq()-1, o.write); err != nil {
		o.t.Fatal(err)
	}
}

// crash abandons the log the way a killed process does: no flush beyond
// what Append already did, no checkpoint.
func crash(l *Log) { l.f.Close() }

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.CopyFS(dst, os.DirFS(src)); err != nil {
		t.Fatal(err)
	}
}

// recordedLog is a crashed log directory plus what it must recover to.
type recordedLog struct {
	name  string
	dir   string
	acked []string // every acknowledged event, in order
	inCP  int      // how many of them the committed checkpoint holds
	ends  []int64  // end offsets of the events in the WAL file
	first int      // index into acked of the WAL's first event
}

// recordWorkloads runs appends → checkpoint → appends → checkpoint →
// appends and crashes it at the two points that leave a non-empty WAL:
// after the last append, and inside the second checkpoint between the meta
// commit and the WAL truncation (where every WAL event is already fenced).
func recordWorkloads(t *testing.T) []recordedLog {
	var out []recordedLog
	for _, name := range []string{"tail", "fenced"} {
		dir := t.TempDir()
		o := &seqOwner{t: t}
		l, err := o.open(dir)
		if err != nil {
			t.Fatal(err)
		}
		o.appendN(l, 5)
		o.checkpoint(l)
		rec := recordedLog{name: name, dir: dir}
		if name == "tail" {
			o.appendN(l, 5)
			o.checkpoint(l)
			rec.inCP, rec.first = 10, 10
			rec.ends = o.appendN(l, 5)
		} else {
			rec.first = 5
			rec.ends = o.appendN(l, 5)
			for _, step := range l.checkpointSteps(10, o.write)[:3] { // through the commit rename
				if err := step(); err != nil {
					t.Fatal(err)
				}
			}
			rec.inCP = 10
		}
		crash(l)
		rec.acked = slices.Clone(o.events)
		out = append(out, rec)
	}
	return out
}

// recoverMutated copies rec, lets mutate damage the WAL, recovers, and
// checks the result is acked[:want] — then that the log still works.
func recoverMutated(t *testing.T, rec recordedLog, what string, want int, mutate func(wal []byte) []byte) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "log")
	copyDir(t, rec.dir, dir)
	walPath := filepath.Join(dir, LogWALFile)
	wal, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, mutate(wal), 0o644); err != nil {
		t.Fatal(err)
	}
	o := &seqOwner{t: t}
	l, err := o.open(dir)
	if err != nil {
		t.Fatalf("%s/%s: recovery failed: %v", rec.name, what, err)
	}
	defer l.Close()
	if !slices.Equal(o.events, rec.acked[:want]) {
		t.Fatalf("%s/%s: recovered %d events %q, want the first %d acknowledged", rec.name, what, len(o.events), o.events, want)
	}
	if seq, err := l.Append(7, []byte("after")); err != nil || seq != uint64(want+1) {
		t.Errorf("%s/%s: append after recovering %d events = seq %d, %v", rec.name, what, want, seq, err)
	}
}

// survivors is how many acknowledged events a WAL damaged at offset must
// still yield: everything in the checkpoint, plus every WAL event that
// ends at or before the damage.
func (rec recordedLog) survivors(offset int64) int {
	n := rec.first
	for _, end := range rec.ends {
		if end <= offset {
			n++
		}
	}
	return max(n, rec.inCP)
}

func TestLogTruncatedAtEveryByte(t *testing.T) {
	for _, rec := range recordWorkloads(t) {
		size := rec.ends[len(rec.ends)-1]
		for cut := int64(0); cut <= size; cut++ {
			recoverMutated(t, rec, fmt.Sprintf("cut@%d", cut), rec.survivors(cut),
				func(wal []byte) []byte { return wal[:cut] })
		}
	}
}

func TestLogBitFlipAtEveryByte(t *testing.T) {
	for _, rec := range recordWorkloads(t) {
		size := rec.ends[len(rec.ends)-1]
		for at := int64(0); at < size; at++ {
			recoverMutated(t, rec, fmt.Sprintf("flip@%d", at), rec.survivors(at),
				func(wal []byte) []byte { wal[at] ^= 1 << (at % 8); return wal })
		}
	}
}

// TestLogCheckpointCrashAtEveryStep stops a checkpoint after each of its
// filesystem steps (and after a failed or half-finished owner write) and
// checks that recovery takes its state from the previous checkpoint or the
// new one, whole, and loses nothing acknowledged.
func TestLogCheckpointCrashAtEveryStep(t *testing.T) {
	type outcome struct{ applied, skipped int }
	cases := []struct {
		name  string
		steps int // how many of the five steps run before the crash
		want  outcome
	}{
		{"before", 0, outcome{applied: 5}},
		{"after-owner-write", 1, outcome{applied: 5}},
		{"after-meta-tmp", 2, outcome{applied: 5}},
		{"after-commit-rename", 3, outcome{skipped: 5}},
		{"after-wal-truncate", 4, outcome{}},
		{"after-sweep", 5, outcome{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			o := &seqOwner{t: t}
			l, err := o.open(dir)
			if err != nil {
				t.Fatal(err)
			}
			o.appendN(l, 5)
			o.checkpoint(l)
			o.appendN(l, 5)
			steps := l.checkpointSteps(10, o.write)
			if len(steps) != len(cases)-1 {
				t.Fatalf("the protocol has %d steps; the cases cover %d", len(steps), len(cases)-1)
			}
			for _, step := range steps[:tc.steps] {
				if err := step(); err != nil {
					t.Fatal(err)
				}
			}
			crash(l)

			r := &seqOwner{t: t}
			rl, err := r.open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer rl.Close()
			if !slices.Equal(r.events, o.events) {
				t.Fatalf("recovered %q, want %q", r.events, o.events)
			}
			rep := rl.Recovered()
			if got := (outcome{rep.Applied, rep.Skipped}); got != tc.want {
				t.Errorf("replay = %+v, want %+v", got, tc.want)
			}
			// Recovery leaves exactly one epoch directory behind.
			entries, _ := filepath.Glob(filepath.Join(dir, logEpochPrefix+"*"))
			if len(entries) != 1 {
				t.Errorf("epoch dirs after recovery: %v", entries)
			}
		})
	}

	t.Run("owner-write-fails", func(t *testing.T) {
		dir := t.TempDir()
		o := &seqOwner{t: t}
		l, err := o.open(dir)
		if err != nil {
			t.Fatal(err)
		}
		o.appendN(l, 5)
		boom := errors.New("disk full")
		half := func(cpDir string) error {
			os.WriteFile(filepath.Join(cpDir, seqFiles[0]), []byte("half"), 0o644)
			os.WriteFile(filepath.Join(cpDir, "junk"), nil, 0o644)
			return boom
		}
		if err := l.Checkpoint(5, half); !errors.Is(err, boom) {
			t.Fatalf("checkpoint = %v, want the owner's error", err)
		}
		// Nothing was committed and the log keeps working; the next
		// checkpoint reuses the epoch number and must not inherit the junk.
		o.appendN(l, 2)
		o.checkpoint(l)
		o.appendN(l, 1)
		crash(l)
		r := &seqOwner{t: t}
		rl, err := r.open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer rl.Close()
		if !slices.Equal(r.events, o.events) || rl.Recovered().Applied != 1 {
			t.Fatalf("recovered %q (replay %+v), want %q", r.events, rl.Recovered(), o.events)
		}
	})
}

// TestLogCorruptMetaIsLoud: a damaged commit record must fail the open —
// treating it as "no checkpoint" would silently serve an empty store.
func TestLogCorruptMetaIsLoud(t *testing.T) {
	src := t.TempDir()
	o := &seqOwner{t: t}
	l, err := o.open(src)
	if err != nil {
		t.Fatal(err)
	}
	o.appendN(l, 3)
	o.checkpoint(l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	meta, err := os.ReadFile(filepath.Join(src, logMetaName))
	if err != nil {
		t.Fatal(err)
	}
	damage := func(what string, data []byte) {
		dir := filepath.Join(t.TempDir(), "log")
		copyDir(t, src, dir)
		if err := os.WriteFile(filepath.Join(dir, logMetaName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		r := &seqOwner{t: t}
		if rl, err := r.open(dir); err == nil {
			rl.Close()
			t.Errorf("%s: open succeeded with %d events", what, len(r.events))
		}
		if HasCheckpoint(dir) {
			t.Errorf("%s: HasCheckpoint trusts a corrupt meta", what)
		}
		if err := LoadCheckpoint(dir, r.load); err == nil {
			t.Errorf("%s: LoadCheckpoint succeeded", what)
		}
	}
	for i := range meta {
		flipped := slices.Clone(meta)
		flipped[i] ^= 1 << (i % 8)
		damage(fmt.Sprintf("flip@%d", i), flipped)
		damage(fmt.Sprintf("cut@%d", i), meta[:i])
	}
}

// TestLogCollectionOwner drives the primitive with the owner the cluster
// nodes use — a collection snapshot plus insert/update/delete-by-id events
// — and checks recovery rebuilds the same documents with indexes intact.
func TestLogCollectionOwner(t *testing.T) {
	const evPut, evDel = 1, 2
	dir := t.TempDir()
	// snap writes c's snapshot into a checkpoint directory.
	snap := func(c *Collection) func(cpDir string) error {
		return func(cpDir string) error {
			f, err := os.Create(filepath.Join(cpDir, "snap"))
			if err != nil {
				return err
			}
			defer f.Close()
			return c.WriteSnapshot(f)
		}
	}
	open := func() (*Log, *Collection) {
		c := newCollection("dt.rec", 0)
		load := func(cpDir string) error {
			f, err := os.Open(filepath.Join(cpDir, "snap"))
			if err != nil {
				return err
			}
			defer f.Close()
			c, err = ReadSnapshot(f)
			return err
		}
		apply := func(seq uint64, kind byte, payload []byte) error {
			d, err := DecodeDoc(payload)
			if err != nil {
				return err
			}
			id, _ := d.Path("id")
			n, _ := id.Scalar().AsInt()
			if kind == evDel {
				c.Delete(n)
			} else {
				c.ApplyReplay(n, d)
			}
			return nil
		}
		l, err := OpenLog(dir, false, load, apply, func(cpDir string) error { return snap(c)(cpDir) })
		if err != nil {
			t.Fatal(err)
		}
		c.EnsureIndex("name_1", "name", HashIndex)
		return l, c
	}
	put := func(l *Log, c *Collection, id int64, name string) {
		d := entityDoc(name, "Movie", id).Set("id", Num(id))
		c.ApplyReplay(id, d)
		if _, err := l.Append(evPut, EncodeDoc(d)); err != nil {
			t.Fatal(err)
		}
	}

	l, c := open()
	put(l, c, 1, "A")
	if err := l.Checkpoint(l.NextSeq()-1, snap(c)); err != nil {
		t.Fatal(err)
	}
	put(l, c, 2, "B")
	put(l, c, 1, "A2") // update in place
	put(l, c, 3, "C")
	c.Delete(3)
	if _, err := l.Append(evDel, EncodeDoc(NewDoc().Set("id", Num(3)))); err != nil {
		t.Fatal(err)
	}
	crash(l)

	rl, rc := open()
	defer rl.Close()
	if rep := rl.Recovered(); rep.Applied != 4 || rep.Truncated {
		t.Errorf("replay = %+v", rep)
	}
	if rc.Count() != c.Count() || rc.Count() != 2 {
		t.Fatalf("recovered count %d vs live %d", rc.Count(), c.Count())
	}
	for _, id := range []int64{1, 2} {
		want, _ := get(c, id)
		got, ok := get(rc, id)
		if !ok || got.String() != want.String() {
			t.Errorf("doc %d: %v vs %v", id, got, want)
		}
	}
	// The index stayed consistent through the replayed update and delete.
	if got := len(find(rc, EqStr("name", "A2"))); got != 1 {
		t.Errorf("indexed find = %d", got)
	}
	for _, stale := range []string{"A", "C"} {
		if got := len(find(rc, EqStr("name", stale))); got != 0 {
			t.Errorf("stale index entry for %q: %d", stale, got)
		}
	}
}

// TestSaveLoadCheckpoint covers the WAL-less pair SaveStoresCtx is built
// on: the second save supersedes the first only at its commit.
func TestSaveLoadCheckpoint(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "made-on-demand")
	if HasCheckpoint(dir) {
		t.Error("HasCheckpoint on a missing dir")
	}
	o := &seqOwner{t: t, events: []string{"one"}}
	if err := SaveCheckpoint(dir, o.write); err != nil {
		t.Fatal(err)
	}
	o.events = []string{"one", "two"}
	boom := errors.New("boom")
	if err := SaveCheckpoint(dir, func(string) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("failed save = %v", err)
	}
	r := &seqOwner{t: t}
	if err := LoadCheckpoint(dir, r.load); err != nil || !slices.Equal(r.events, []string{"one"}) {
		t.Fatalf("after a failed save: %q, %v — want the first checkpoint", r.events, err)
	}
	if err := SaveCheckpoint(dir, o.write); err != nil {
		t.Fatal(err)
	}
	if err := LoadCheckpoint(dir, r.load); err != nil || !slices.Equal(r.events, o.events) {
		t.Fatalf("after the second save: %q, %v", r.events, err)
	}
	if entries, _ := filepath.Glob(filepath.Join(dir, logEpochPrefix+"*")); len(entries) != 1 {
		t.Errorf("epoch dirs: %v", entries)
	}
}

// TestLogReadersDuringWrites: Stats and NextSeq are the calls a serving
// path makes while the single writer appends and checkpoints; run with
// -race this pins down what l.mu has to cover.
func TestLogReadersDuringWrites(t *testing.T) {
	o := &seqOwner{t: t}
	l, err := o.open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if st := l.Stats(); st.NextSeq <= st.Fence || l.NextSeq() < st.NextSeq {
					t.Errorf("inconsistent stats %+v", st)
					return
				}
			}
		}()
	}
	for round := 0; round < 20; round++ {
		o.appendN(l, 5)
		o.checkpoint(l)
	}
	close(stop)
	wg.Wait()
	if st := l.Stats(); st.NextSeq != 101 || st.Fence != 100 || st.WALEvents != 0 {
		t.Errorf("final stats %+v", st)
	}
}

// referenceMeta decodes a checkpoint.meta by hand: one frame (4-byte
// little-endian length, payload, 4-byte IEEE CRC of the payload) whose
// payload starts with the fence and the epoch as uvarints. A frame longer
// than two maximal uvarints is refused.
func referenceMeta(data []byte) (fence, epoch uint64, ok bool) {
	if len(data) < 4 {
		return 0, 0, false
	}
	n := binary.LittleEndian.Uint32(data)
	if n > 2*binary.MaxVarintLen64 || uint64(len(data)) < 8+uint64(n) {
		return 0, 0, false
	}
	payload := data[4 : 4+n]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[4+n:]) {
		return 0, 0, false
	}
	fence, k := binary.Uvarint(payload)
	if k <= 0 {
		return 0, 0, false
	}
	epoch, k = binary.Uvarint(payload[k:])
	return fence, epoch, k > 0
}

// FuzzReadMeta: OpenLog over a directory whose checkpoint.meta holds any
// bytes. Reading the meta never panics and allocates a bounded amount
// whatever length its frame header claims; a meta referenceMeta refuses
// fails the open as corrupt, and one it accepts opens the log at its
// fence after loading its epoch. The seeds are the files under
// testdata/fuzz/FuzzReadMeta.
func FuzzReadMeta(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logMetaName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _ = (&Log{dir: dir}).readMeta()
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Fatalf("reading a %d-byte meta allocated %d bytes", len(data), grew)
		}

		var loaded string
		l, err := OpenLog(dir, false,
			func(cpDir string) error { loaded = cpDir; return nil },
			func(uint64, byte, []byte) error { return nil },
			func(string) error { return nil })
		fence, epoch, ok := referenceMeta(data)
		if !ok {
			if err == nil || !strings.Contains(err.Error(), "corrupt") {
				t.Fatalf("meta %x: open error %v, want a corrupt meta", data, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("meta %x (fence %d, epoch %d): %v", data, fence, epoch, err)
		}
		defer l.Close()
		if want := filepath.Join(dir, fmt.Sprintf("checkpoint-%06d", epoch)); loaded != want {
			t.Errorf("loaded %q, want %q", loaded, want)
		}
		if got := l.Stats().Fence; got != fence {
			t.Errorf("fence %d, want %d", got, fence)
		}
	})
}
