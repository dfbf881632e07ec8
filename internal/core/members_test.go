package core

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dedup"
	"repro/internal/record"
	"repro/internal/store"
)

// encodeRecords is the bytes of recs in order: each one's source, id and
// fields, value kinds included.
func encodeRecords(recs []*record.Record) []byte {
	var buf, doc bytes.Buffer
	for _, r := range recs {
		store.PutString(&buf, r.Source)
		store.PutString(&buf, r.ID)
		doc.Reset()
		store.PutRecord(&doc, r)
		store.PutBytes(&buf, doc.Bytes())
	}
	return buf.Bytes()
}

// roundTrip is recs through the store codec, as a checkpoint writes and
// reads them.
func roundTrip(t *testing.T, recs []*record.Record) []*record.Record {
	t.Helper()
	out := make([]*record.Record, len(recs))
	for i, r := range recs {
		var buf bytes.Buffer
		store.PutRecord(&buf, r)
		d, err := store.AdoptDoc(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		out[i] = d.ToRecord()
		out[i].Source, out[i].ID = r.Source, r.ID
	}
	return out
}

// batchOracle is the fused view one batch pass over the registry gives:
// every registered record translated with the final global schema and
// cleaned, one entity consolidation over them in registry order, and the
// consolidated records ordered by SHOW_NAME, ties by first member.
func batchOracle(tm *Tamer) []*record.Record {
	var recs []*record.Record
	for _, src := range tm.Registry.Sources() {
		for _, r := range src.Records {
			tr := tm.Global.Translate(r)
			tm.Cleaner.Apply(tr)
			recs = append(recs, tr)
		}
	}
	deduper := &dedup.Deduper{Blocker: dedup.PrefixBlocker("SHOW_NAME", 4), Matcher: tm.matcherLocked()}
	clusters := deduper.Run(recs) // by smallest member
	out := make([]*record.Record, len(clusters))
	for i, c := range clusters {
		out[i] = c.Record
	}
	slices.SortStableFunc(out, func(a, b *record.Record) int {
		return cmp.Compare(a.GetString("SHOW_NAME"), b.GetString("SHOW_NAME"))
	})
	return out
}

// TestFusedViewMatchesBatchOracle: however the sources' records are split
// into batches and interleaved, and wherever the view is refreshed or
// restored from its members, the fused view is the one a single batch pass
// over the registry consolidates. Each source's first batch, half its rows,
// arrives in generation order, so every source makes its schema decisions
// on the same samples in every split.
func TestFusedViewMatchesBatchOracle(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 3; seed++ {
		for split := int64(0); split < 4; split++ {
			t.Run(fmt.Sprintf("seed%d/split%d", seed, split), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed*100 + split))
				tm := New(Config{FTSources: 20, Shards: 1, Seed: seed})
				sources := datagen.GenerateFTables(datagen.FTablesConfig{Sources: 20, Seed: seed})
				var rest [][][]*record.Record // per source, its later batches in order
				for _, src := range sources {
					half := (len(src.Records) + 1) / 2
					if _, err := tm.ApplyRecords(ctx, src.Name, src.Records[:half]); err != nil {
						t.Fatal(err)
					}
					var batches [][]*record.Record
					for recs := src.Records[half:]; len(recs) > 0; {
						n := min(len(recs), 1+rng.Intn(len(recs)))
						batches = append(batches, recs[:n])
						recs = recs[n:]
					}
					rest = append(rest, batches)
				}
				applied, restoreAt := 0, -1
				if split == 3 {
					restoreAt = 5
				}
				for {
					var open []int
					for i, b := range rest {
						if len(b) > 0 {
							open = append(open, i)
						}
					}
					if len(open) == 0 {
						break
					}
					i := open[rng.Intn(len(open))]
					if _, err := tm.ApplyRecords(ctx, sources[i].Name, rest[i][0]); err != nil {
						t.Fatal(err)
					}
					rest[i] = rest[i][1:]
					if applied++; applied == restoreAt {
						tm.RestoreFused(roundTrip(t, tm.FusedMembers()))
					}
					if rng.Intn(4) == 0 {
						if _, err := tm.RefreshFused(ctx); err != nil {
							t.Fatal(err)
						}
					}
				}
				got, want := tm.FusedRecords(), batchOracle(tm)
				if !bytes.Equal(encodeRecords(got), encodeRecords(want)) {
					t.Fatalf("fused view of %d records differs from the batch pass's %d", len(got), len(want))
				}
			})
		}
	}
}

// TestLiveRecordDoesNotOutvoteSources: one live record naming another
// theater for Matilda is one vote against the sources that agree on the
// Shubert, not one against their consolidated record.
func TestLiveRecordDoesNotOutvoteSources(t *testing.T) {
	ctx := context.Background()
	tm := New(Config{Fragments: 100, Shards: 1, Seed: 1})
	if err := tm.Run(ctx); err != nil {
		t.Fatal(err)
	}
	live := record.New()
	live.Set("SHOW_NAME", record.String("Matilda"))
	live.Set("THEATER", record.String("Belasco 111 W. 44th St between 6th Ave and Broadway"))
	if _, err := tm.ApplyRecords(ctx, "live_feed", []*record.Record{live}); err != nil {
		t.Fatal(err)
	}
	fused, err := tm.QueryFused(ctx, "Matilda")
	if err != nil {
		t.Fatal(err)
	}
	if got := fused.GetString("THEATER"); got != datagen.MatildaFacts.Theater {
		t.Errorf("THEATER = %q after one live record, want the sources' %q", got, datagen.MatildaFacts.Theater)
	}
}

// TestMatchReportsKeepFig2Report: trimming the reports to their bound keeps
// the first, the report Fig. 2 prints.
func TestMatchReportsKeepFig2Report(t *testing.T) {
	ctx := context.Background()
	tm := New(Config{Fragments: 50, FTSources: 3, Shards: 2, Seed: 5})
	if err := tm.Run(ctx); err != nil {
		t.Fatal(err)
	}
	first := tm.MatchReports()[0]
	for i := 0; i < 1030; i++ {
		r := record.New()
		r.Set("Show Name", record.String(fmt.Sprintf("Live Show %d", i)))
		if _, err := tm.ApplyRecords(ctx, "live_feed", []*record.Record{r}); err != nil {
			t.Fatal(err)
		}
	}
	reps := tm.MatchReports()
	if len(reps) != 1024 || reps[0] != first {
		t.Errorf("%d reports, first is the Fig. 2 report: %v", len(reps), reps[0] == first)
	}
}
