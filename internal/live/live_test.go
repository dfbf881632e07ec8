package live

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/dterr"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/fuse"
	"repro/internal/record"
	"repro/internal/store"
)

// liveTamer builds and batch-runs a small pipeline.
func liveTamer(t testing.TB) *core.Tamer {
	t.Helper()
	tm := core.New(core.Config{Fragments: 120, FTSources: 3, Shards: 2, Seed: 7})
	if err := tm.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return tm
}

func fragmentAt(i int) Fragment {
	return Fragment{
		URL:  fmt.Sprintf("http://live.example.com/feed/%d", i),
		Text: fmt.Sprintf("Review %d: Matilda an award-winning import from London, grossed 960,998 this week.", i),
	}
}

// showRecord is a structured record for a show name unseen in the batch run.
func showRecord(show string, price int64) *record.Record {
	r := record.New()
	r.Set("SHOW_NAME", record.String(show))
	r.Set("THEATER", record.String("Imperial"))
	r.Set("CHEAPEST_PRICE", record.Int(price))
	return r
}

func TestIngestTextAndRecordsReflectedInQueries(t *testing.T) {
	tm := liveTamer(t)
	base := tm.InstanceStats().Count
	ing, err := Open(context.Background(), tm, Config{Dir: t.TempDir(), BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()

	for i := 0; i < 10; i++ {
		if err := ing.IngestText(context.Background(), []Fragment{fragmentAt(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ing.IngestRecords(context.Background(), "live_src", []*record.Record{showRecord("Zanzibar Nights", 59)}); err != nil {
		t.Fatal(err)
	}
	if err := ing.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}

	if got := tm.InstanceStats().Count; got != base+10 {
		t.Errorf("instance count = %d, want %d", got, base+10)
	}
	if hits := fuse.NewShowIndex(tm.FusedRecords(), "SHOW_NAME").Lookup("Zanzibar Nights"); len(hits) != 1 {
		t.Fatalf("fused lookup = %d records, want 1", len(hits))
	} else if hits[0].GetString("THEATER") != "Imperial" {
		t.Errorf("fused record = %v", hits[0])
	}

	st := ing.Stats()
	if st.TextEvents != 10 || st.RecordEvents != 1 || st.Fragments != 10 || st.Records != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Batches == 0 || st.FusedRefreshes == 0 {
		t.Errorf("no batches/refreshes recorded: %+v", st)
	}
	if st.Pending != 0 || st.LastError != "" {
		t.Errorf("stats after flush = %+v", st)
	}
}

func TestConcurrentIngestUnderRace(t *testing.T) {
	tm := liveTamer(t)
	base := tm.InstanceStats().Count
	ing, err := Open(context.Background(), tm, Config{Dir: t.TempDir(), BatchSize: 8, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()

	const writers, perWriter = 8, 20
	// Distinct names so entity consolidation does not merge them.
	shows := []string{"Aurora Falls", "Brooklyn Tide", "Crimson Alley", "Dune Sparrow",
		"Ember Lane", "Foxglove Hour", "Gilded Harbor", "Hollow Crown"}
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := ing.IngestText(context.Background(), []Fragment{fragmentAt(w*1000 + i)}); err != nil {
					errs <- err
					return
				}
				// Interleave queries with writes.
				_, _ = tm.QueryFused(context.Background(), "Matilda")
				_ = tm.EntityStats()
			}
			if w%2 == 0 {
				errs <- ing.IngestRecords(context.Background(), fmt.Sprintf("live_src_%d", w),
					[]*record.Record{showRecord(shows[w], int64(40+w))})
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := ing.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := tm.InstanceStats().Count; got != base+writers*perWriter {
		t.Errorf("instance count = %d, want %d", got, base+writers*perWriter)
	}
	if hits := fuse.NewShowIndex(tm.FusedRecords(), "SHOW_NAME").Lookup(shows[2]); len(hits) != 1 {
		t.Errorf("fused lookup after concurrent ingest = %d", len(hits))
	}
}

func TestCrashRecoveryReplaysAcknowledgedWrites(t *testing.T) {
	dir := t.TempDir()
	tm1 := liveTamer(t)
	ing1, err := Open(context.Background(), tm1, Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := ing1.IngestText(context.Background(), []Fragment{fragmentAt(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ing1.IngestRecords(context.Background(), "live_src", []*record.Record{showRecord("Phoenix Rising", 75)}); err != nil {
		t.Fatal(err)
	}
	// Crash: no Flush, no Close. Acknowledged writes are already in the WAL.

	tm2 := liveTamer(t)
	ing2, err := Open(context.Background(), tm2, Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer ing2.Close()

	rep := ing2.log.Recovered()
	if rep.Applied != 6 {
		t.Errorf("replay applied = %d, want 6 (%+v)", rep.Applied, rep)
	}
	if got, want := tm2.InstanceStats().Count, tm1.InstanceStats().Count; got < want {
		// tm1 may or may not have applied before the simulated crash, but
		// tm2 must have everything that was acknowledged.
		t.Errorf("recovered instance count = %d, want >= %d", got, want)
	}
	if hits := fuse.NewShowIndex(tm2.FusedRecords(), "SHOW_NAME").Lookup("Phoenix Rising"); len(hits) != 1 {
		t.Errorf("fused record lost in crash: %d hits", len(hits))
	}
}

func TestTornWALTailRecoversCleanly(t *testing.T) {
	dir := t.TempDir()
	tm1 := liveTamer(t)
	ing1, err := Open(context.Background(), tm1, Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := ing1.IngestText(context.Background(), []Fragment{fragmentAt(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Crash mid-write: shear bytes off the last WAL frame.
	walPath := filepath.Join(dir, store.LogWALFile)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-4], 0o644); err != nil {
		t.Fatal(err)
	}

	tm2 := liveTamer(t)
	ing2, err := Open(context.Background(), tm2, Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer ing2.Close()
	rep := ing2.log.Recovered()
	if !rep.Truncated {
		t.Error("torn tail not detected")
	}
	if rep.Applied != 2 {
		t.Errorf("replay applied = %d, want 2 (%+v)", rep.Applied, rep)
	}
}

func TestCheckpointFencesDoubleApply(t *testing.T) {
	dir := t.TempDir()
	tm1 := liveTamer(t)
	ing1, err := Open(context.Background(), tm1, Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := ing1.IngestText(context.Background(), []Fragment{fragmentAt(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ing1.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	applied := tm1.InstanceStats().Count
	walPath := filepath.Join(dir, store.LogWALFile)
	preCheckpoint, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := ing1.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash between writing the checkpoint and rotating the
	// WAL: the old WAL (with already-applied events) reappears on disk.
	if err := os.WriteFile(walPath, preCheckpoint, 0o644); err != nil {
		t.Fatal(err)
	}

	tm2 := liveTamer(t)
	ing2, err := Open(context.Background(), tm2, Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer ing2.Close()
	rep := ing2.log.Recovered()
	if rep.Applied != 0 || rep.Skipped != 4 {
		t.Errorf("replay = %+v, want 0 applied / 4 skipped", rep)
	}
	if got := tm2.InstanceStats().Count; got != applied {
		t.Errorf("instance count after fenced recovery = %d, want %d", got, applied)
	}
}

func TestCloseCheckpointsAndRejectsWrites(t *testing.T) {
	dir := t.TempDir()
	tm := liveTamer(t)
	ing, err := Open(context.Background(), tm, Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := ing.IngestText(context.Background(), []Fragment{fragmentAt(0)}); err != nil {
		t.Fatal(err)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ing.IngestText(context.Background(), []Fragment{fragmentAt(1)}); !errors.Is(err, ErrClosed) {
		t.Errorf("write after close = %v, want ErrClosed", err)
	}
	if err := ing.Close(); err != nil {
		t.Errorf("double close = %v", err)
	}

	// Reopen: everything is in the checkpoint, nothing left to replay.
	count := tm.InstanceStats().Count
	tm2 := liveTamer(t)
	ing2, err := Open(context.Background(), tm2, Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer ing2.Close()
	if rep := ing2.log.Recovered(); rep.Applied != 0 {
		t.Errorf("replay after clean close = %+v", rep)
	}
	if got := tm2.InstanceStats().Count; got != count {
		t.Errorf("instance count = %d, want %d", got, count)
	}
}

func TestWALRecordRoundTrip(t *testing.T) {
	rec := showRecord("Round Trip", 42)
	rec.Source = "src"
	rec.ID = "src#0"
	payload := encodeRecords("src", []*record.Record{rec})
	source, recs, err := decodeRecords(payload)
	if err != nil {
		t.Fatal(err)
	}
	if source != "src" || len(recs) != 1 {
		t.Fatalf("decoded %q, %d records", source, len(recs))
	}
	got := recs[0]
	if got.Source != "src" || got.ID != "src#0" {
		t.Errorf("provenance = %q/%q", got.Source, got.ID)
	}
	if !slices.Equal(got.Fields(), rec.Fields()) {
		t.Errorf("record mismatch: %v vs %v", got, rec)
	}
	if v, _ := got.Get("CHEAPEST_PRICE"); v.Kind() != record.KindInt {
		t.Errorf("price kind = %v, want int", v.Kind())
	}
}

func TestPoisonWALEventDoesNotBrickRecovery(t *testing.T) {
	dir := t.TempDir()
	// Hand-craft a WAL with good events around an unknown kind and an
	// undecodable payload — e.g. written by a newer version or corrupted
	// in a way CRC framing cannot see.
	f, err := os.Create(filepath.Join(dir, store.LogWALFile))
	if err != nil {
		t.Fatal(err)
	}
	lg, err := store.NewEventLog(f)
	if err != nil {
		t.Fatal(err)
	}
	lg.Append(evText, encodeText([]Fragment{fragmentAt(1)}))
	lg.Append(99, []byte("mystery"))
	lg.Append(evText, []byte{0xff, 0xff, 0xff})
	lg.Append(evText, encodeText([]Fragment{fragmentAt(2)}))
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	tm := liveTamer(t)
	base := tm.InstanceStats().Count
	ing, err := Open(context.Background(), tm, Config{Dir: dir})
	if err != nil {
		t.Fatalf("poison event bricked recovery: %v", err)
	}
	defer ing.Close()
	st := ing.Stats()
	if st.ReplayErrors != 2 {
		t.Errorf("replay errors = %d, want 2", st.ReplayErrors)
	}
	if got := tm.InstanceStats().Count; got != base+2 {
		t.Errorf("instance count = %d, want %d (good events around the poison)", got, base+2)
	}
}

func TestCheckpointCommitIsAtomic(t *testing.T) {
	dir := t.TempDir()
	tm := liveTamer(t)
	ing, err := Open(context.Background(), tm, Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := ing.IngestText(context.Background(), []Fragment{fragmentAt(0)}); err != nil {
		t.Fatal(err)
	}
	if err := ing.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	count := tm.InstanceStats().Count
	// Crash mid-next-checkpoint: an uncommitted epoch directory exists with
	// garbage contents, but the meta file still names the committed epoch.
	stale := filepath.Join(dir, "checkpoint-000099")
	if err := os.MkdirAll(stale, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stale, membersName), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	tm2 := liveTamer(t)
	ing2, err := Open(context.Background(), tm2, Config{Dir: dir})
	if err != nil {
		t.Fatalf("uncommitted checkpoint dir broke recovery: %v", err)
	}
	defer ing2.Close()
	if got := tm2.InstanceStats().Count; got != count {
		t.Errorf("instance count = %d, want %d", got, count)
	}
	// The stale epoch was swept once a new checkpoint committed.
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale epoch dir still present")
	}
}

func TestLiveRecordIDsUniqueAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	tm1 := liveTamer(t)
	ing1, err := Open(context.Background(), tm1, Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	r1 := showRecord("Ivory Gate", 51)
	if err := ing1.IngestRecords(context.Background(), "feed", []*record.Record{r1}); err != nil {
		t.Fatal(err)
	}
	if err := ing1.Close(); err != nil {
		t.Fatal(err)
	}
	tm2 := liveTamer(t)
	ing2, err := Open(context.Background(), tm2, Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer ing2.Close()
	r2 := showRecord("Jade Lantern", 62)
	if err := ing2.IngestRecords(context.Background(), "feed", []*record.Record{r2}); err != nil {
		t.Fatal(err)
	}
	if err := ing2.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if r1.ID == "" || r2.ID == "" || r1.ID == r2.ID {
		t.Errorf("live record IDs collide across restart: %q vs %q", r1.ID, r2.ID)
	}
}

func TestWALCodecEmptyTrailingStrings(t *testing.T) {
	// A zero-length string as the final field of a payload must round-trip;
	// losing it would drop an acknowledged event during crash replay.
	frags, err := decodeText(encodeText([]Fragment{{URL: "u", Text: ""}}))
	if err != nil {
		t.Fatalf("empty trailing text: %v", err)
	}
	if len(frags) != 1 || frags[0].URL != "u" || frags[0].Text != "" {
		t.Errorf("frags = %+v", frags)
	}
	if frags, err = decodeText(encodeText([]Fragment{{URL: "", Text: ""}})); err != nil || len(frags) != 1 {
		t.Errorf("all-empty fragment: %v, %+v", err, frags)
	}
	rec := record.New()
	rec.Set("NOTES", record.String(""))
	source, recs, err := decodeRecords(encodeRecords("s", []*record.Record{rec}))
	if err != nil || source != "s" || len(recs) != 1 {
		t.Errorf("empty-valued record: %v, %q, %d", err, source, len(recs))
	}
}

func TestCleanRestartSkipsRecheckpoint(t *testing.T) {
	dir := t.TempDir()
	tm1 := liveTamer(t)
	ing1, err := Open(context.Background(), tm1, Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := ing1.IngestText(context.Background(), []Fragment{fragmentAt(0)}); err != nil {
		t.Fatal(err)
	}
	if err := ing1.Close(); err != nil {
		t.Fatal(err)
	}
	// The commit record plus the epoch directory it names.
	committed := func() string {
		meta, err := os.ReadFile(filepath.Join(dir, "checkpoint.meta"))
		if err != nil {
			t.Fatal(err)
		}
		epochs, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*"))
		return fmt.Sprintf("%x %v", meta, epochs)
	}
	if !store.HasCheckpoint(dir) {
		t.Fatal("no checkpoint after close")
	}
	before := committed()
	// Clean restart: nothing to replay, so the existing checkpoint must be
	// kept as-is rather than rewritten under a new epoch.
	tm2 := liveTamer(t)
	ing2, err := Open(context.Background(), tm2, Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if after := committed(); after != before {
		t.Errorf("clean restart rewrote checkpoint: %s -> %s", before, after)
	}
	// And the fence still works for writes made after the clean restart.
	if err := ing2.IngestText(context.Background(), []Fragment{fragmentAt(1)}); err != nil {
		t.Fatal(err)
	}
	if err := ing2.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	count := tm2.InstanceStats().Count
	if err := ing2.Close(); err != nil {
		t.Fatal(err)
	}
	tm3 := liveTamer(t)
	ing3, err := Open(context.Background(), tm3, Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer ing3.Close()
	if got := tm3.InstanceStats().Count; got != count {
		t.Errorf("instance count after restart chain = %d, want %d", got, count)
	}
}

func TestOpenContextCancelStopsApplyWorkers(t *testing.T) {
	dir := t.TempDir()
	tm := liveTamer(t)
	ctx, cancel := context.WithCancel(context.Background())
	// A long flush interval keeps writes queued until we cancel, so the
	// abort path (not a normal batch apply) releases them.
	ing, err := Open(ctx, tm, Config{Dir: dir, BatchSize: 1 << 20, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	base := tm.InstanceStats().Count
	for i := 0; i < 6; i++ {
		if err := ing.IngestText(context.Background(), []Fragment{fragmentAt(i)}); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	// Flush must not hang: the aborted applier releases the queued events.
	if err := ing.Flush(context.Background()); err == nil {
		t.Error("flush after open-ctx cancel should fail")
	} else if !errors.Is(err, dterr.ErrClosed) && !errors.Is(err, context.Canceled) {
		t.Errorf("flush error = %v", err)
	}
	if got := tm.InstanceStats().Count; got != base {
		t.Errorf("aborted applier still applied writes: %d vs base %d", got, base)
	}
	// New writes are rejected once the worker is stopped. The abort races
	// with the write path, so poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		err := ing.IngestText(context.Background(), []Fragment{fragmentAt(99)})
		if errors.Is(err, ErrClosed) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("write after cancel = %v, want ErrClosed", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}

	// The acknowledged writes survived in the WAL: a fresh Open replays them.
	tm2 := liveTamer(t)
	ing2, err := Open(context.Background(), tm2, Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer ing2.Close()
	if rep := ing2.log.Recovered(); rep.Applied < 6 {
		t.Errorf("replay after abort = %+v, want >= 6 applied", rep)
	}
}

func TestIngestContextCancelUnderBackpressure(t *testing.T) {
	tm := liveTamer(t)
	// A tiny byte budget forces the second write to wait on backpressure,
	// and a huge flush interval keeps the applier from draining it.
	ing, err := Open(context.Background(), tm, Config{
		Dir: t.TempDir(), BatchSize: 1 << 20, FlushInterval: time.Hour, MaxQueueBytes: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Close's flush signal unblocks the applier, so this drains cleanly.
	defer ing.Close()
	if err := ing.IngestText(context.Background(), []Fragment{fragmentAt(0)}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err = ing.IngestText(ctx, []Fragment{fragmentAt(1)})
	if !errors.Is(err, dterr.ErrBusy) {
		t.Errorf("backpressured write with expiring ctx = %v, want ErrBusy", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("cause not preserved: %v", err)
	}
}

// FuzzDecodeRecords: no bytes panic the decoder of a record event or of a
// members checkpoint entry, and whatever decodes encodes to a payload that
// decodes to the same source and records. The seeds are the files under
// testdata/fuzz/FuzzDecodeRecords.
func FuzzDecodeRecords(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		source, recs, err := decodeRecords(data)
		if err != nil {
			return
		}
		payload := encodeRecords(source, recs)
		source2, recs2, err := decodeRecords(payload)
		if err != nil {
			t.Fatalf("re-decode of %x: %v", payload, err)
		}
		if source2 != source || len(recs2) != len(recs) {
			t.Fatalf("source %q and %d records, then %q and %d", source, len(recs), source2, len(recs2))
		}
		if again := encodeRecords(source2, recs2); !bytes.Equal(again, payload) {
			t.Fatalf("unstable round trip: %x then %x", payload, again)
		}
	})
}

// FuzzDecodeText: no bytes panic the decoder of a text event, and what
// decodes encodes to a payload that decodes to the same fragments and
// encodes to the same bytes again. The seeds are the files under
// testdata/fuzz/FuzzDecodeText.
func FuzzDecodeText(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		frags, err := decodeText(data)
		if err != nil {
			return
		}
		payload := encodeText(frags)
		frags2, err := decodeText(payload)
		if err != nil {
			t.Fatalf("re-decode of %x: %v", payload, err)
		}
		if !slices.Equal(frags2, frags) {
			t.Fatalf("fragments %q, then %q", frags, frags2)
		}
		if again := encodeText(frags2); !bytes.Equal(again, payload) {
			t.Fatalf("unstable round trip: %x then %x", payload, again)
		}
	})
}

// TestRestoredMembersVoteAsSources: a checkpoint carries the fused view's
// members, so a record ingested after a restart is consolidated with every
// source's record, exactly as without the restart — not with the
// consolidated records the view held.
func TestRestoredMembersVoteAsSources(t *testing.T) {
	ctx := context.Background()
	before := func() *record.Record {
		r := showRecord("Zanzibar Nights", 59)
		r.ID = "live_src#x"
		return r
	}
	after := func() *record.Record {
		r := record.New()
		r.ID = "live_src#y"
		r.Set("SHOW_NAME", record.String("Matilda"))
		r.Set("THEATER", record.String("Belasco 111 W. 44th St between 6th Ave and Broadway"))
		return r
	}
	dir := t.TempDir()
	ing1, err := Open(ctx, liveTamer(t), Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := ing1.IngestRecords(ctx, "live_src", []*record.Record{before()}); err != nil {
		t.Fatal(err)
	}
	if err := ing1.Close(); err != nil {
		t.Fatal(err)
	}
	restarted := liveTamer(t)
	ing2, err := Open(ctx, restarted, Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer ing2.Close()
	if err := ing2.IngestRecords(ctx, "live_src", []*record.Record{after()}); err != nil {
		t.Fatal(err)
	}
	if err := ing2.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	uninterrupted := liveTamer(t)
	for _, r := range []*record.Record{before(), after()} {
		if _, err := uninterrupted.ApplyRecords(ctx, "live_src", []*record.Record{r}); err != nil {
			t.Fatal(err)
		}
	}
	got, want := restarted.FusedRecords(), uninterrupted.FusedRecords()
	if !bytes.Equal(encodeRecords("", got), encodeRecords("", want)) {
		t.Errorf("fused view after a restart (%d records) differs from the uninterrupted one (%d)", len(got), len(want))
	}
	if hits := fuse.NewShowIndex(got, "SHOW_NAME").Lookup("Matilda"); len(hits) != 1 || hits[0].GetString("THEATER") != datagen.MatildaFacts.Theater {
		t.Errorf("Matilda after a restart and one live record: %v", hits)
	}
}
