package core

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dedup"
	"repro/internal/record"
	"repro/internal/store"
	"repro/internal/textutil"
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
// cleaned, one entity consolidation over them in registry order that scores
// every candidate pair (dedup's AllPairsMembers) and merges each cluster
// with refConsolidate, and the consolidated records ordered by SHOW_NAME,
// ties by first member.
func batchOracle(tm *Tamer) []*record.Record {
	var recs []*record.Record
	var keys [][]string
	blocker := dedup.PrefixBlocker("SHOW_NAME", 4)
	for _, src := range tm.Registry.Sources() {
		for _, r := range src.Records {
			tr := tm.Global.Translate(r)
			tm.Cleaner.Apply(tr)
			recs = append(recs, tr)
			keys = append(keys, blocker(tr))
		}
	}
	deduper := &dedup.Deduper{Blocker: blocker, Matcher: tm.matcherLocked()}
	clusters := deduper.AllPairsMembers(recs, keys) // by smallest member
	out := make([]*record.Record, len(clusters))
	for i, members := range clusters {
		cluster := make([]*record.Record, len(members))
		for k, m := range members {
			cluster[k] = recs[m]
		}
		out[i] = refConsolidate(cluster)
	}
	slices.SortStableFunc(out, func(a, b *record.Record) int {
		return cmp.Compare(a.GetString("SHOW_NAME"), b.GetString("SHOW_NAME"))
	})
	return out
}

// refConsolidate and refPickValue are dedup.Consolidate and pickValue as
// they stood when they gathered every raw value of an attribute in a slice
// and normalized each one: the reference for the map of distinct values
// that replaced the slice.
func refConsolidate(records []*record.Record) *record.Record {
	if len(records) == 0 {
		return record.New()
	}
	if len(records) == 1 {
		return records[0].Clone()
	}
	// Gather values per normalized attribute, keeping first-seen display name.
	type valueInfo struct {
		display string
		raw     []string
	}
	attrs := map[string]*valueInfo{}
	var order []string
	for _, r := range records {
		for _, f := range r.Fields() {
			key := record.NormalizeName(f.Name)
			vi, ok := attrs[key]
			if !ok {
				vi = &valueInfo{display: f.Name}
				attrs[key] = vi
				order = append(order, key)
			}
			if !f.Value.IsNull() {
				vi.raw = append(vi.raw, f.Value.Str())
			}
		}
	}
	out := record.NewCap(len(order))
	sources := map[string]bool{}
	for _, r := range records {
		if r.Source != "" {
			sources[r.Source] = true
		}
	}
	for _, key := range order {
		vi := attrs[key]
		if len(vi.raw) == 0 {
			continue
		}
		best := refPickValue(vi.raw)
		out.Set(vi.display, record.Infer(best))
	}
	srcs := make([]string, 0, len(sources))
	for s := range sources {
		srcs = append(srcs, s)
	}
	sort.Strings(srcs)
	out.Source = strings.Join(srcs, "+")
	return out
}

func refPickValue(raw []string) string {
	counts := map[string]int{}
	bestRaw := map[string]string{}
	for _, v := range raw {
		n := textutil.Normalize(v)
		counts[n]++
		cur, ok := bestRaw[n]
		if !ok || len(v) > len(cur) || (len(v) == len(cur) && v < cur) {
			bestRaw[n] = v
		}
	}
	type cand struct {
		norm  string
		count int
	}
	cands := make([]cand, 0, len(counts))
	for n, c := range counts {
		cands = append(cands, cand{norm: n, count: c})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].count != cands[j].count {
			return cands[i].count > cands[j].count
		}
		li, lj := len(bestRaw[cands[i].norm]), len(bestRaw[cands[j].norm])
		if li != lj {
			return li > lj
		}
		return cands[i].norm < cands[j].norm
	})
	return bestRaw[cands[0].norm]
}

// fusedTables is a pipeline of seed's 20 generated sources, applied and
// folded into the fused view.
func fusedTables(t *testing.T, seed int64) *Tamer {
	t.Helper()
	ctx := context.Background()
	tm := New(Config{FTSources: 20, Shards: 1, Seed: seed})
	for _, src := range datagen.GenerateFTables(datagen.FTablesConfig{Sources: 20, Seed: seed}) {
		if _, err := tm.ApplyRecords(ctx, src.Name, src.Records); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tm.RefreshFused(ctx); err != nil {
		t.Fatal(err)
	}
	return tm
}

// TestConsolidateMatchesReference: every fused cluster of seeds 1-3, and
// all their members as one cluster, consolidate as refConsolidate does.
func TestConsolidateMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		tm := fusedTables(t, seed)
		var all []*record.Record
		for _, c := range tm.view.clusters {
			recs := make([]*record.Record, len(c.members))
			for i, m := range c.members {
				recs[i] = m.rec
			}
			all = append(all, recs...)
			got, want := dedup.Consolidate(recs), refConsolidate(recs)
			if !bytes.Equal(encodeRecords([]*record.Record{got}), encodeRecords([]*record.Record{want})) {
				t.Fatalf("seed %d, %q: consolidated %v, reference %v", seed, c.show, got, want)
			}
		}
		got, want := dedup.Consolidate(all), refConsolidate(all)
		if !bytes.Equal(encodeRecords([]*record.Record{got}), encodeRecords([]*record.Record{want})) {
			t.Fatalf("seed %d, all %d members: consolidated %v, reference %v", seed, len(all), got, want)
		}
	}
}

// TestRefreshScoresOnlyPairsWithANewMember: twenty batches of five new
// shows, folded into a built view one refresh each as the live records
// cycle does, meet and score no more pairs than the pending members times
// the pool, though every batch joins the pool of the batches before it
// (they share the "revi" block); the view stays the batch pass's.
func TestRefreshScoresOnlyPairsWithANewMember(t *testing.T) {
	ctx := context.Background()
	tm := fusedTables(t, 1)
	for i := 0; i < 20; i++ {
		batch := make([]*record.Record, 5)
		for j := range batch {
			n := i*5 + j
			r := record.New()
			r.Set("SHOW_NAME", record.String(fmt.Sprintf("Revival %d of %s", n, []string{"Matilda", "Wicked", "Pippin"}[n%3])))
			r.Set("THEATER", record.String("Belasco Theatre"))
			r.Set("CHEAPEST_PRICE", record.Int(int64(30+n%100)))
			batch[j] = r
		}
		if _, err := tm.ApplyRecords(ctx, "live_feed", batch); err != nil {
			t.Fatal(err)
		}
		tm.mu.Lock()
		pending, res := tm.refreshFusedLocked()
		tm.mu.Unlock()
		pool := 0
		for _, c := range res.Clusters {
			pool += len(c.Members)
		}
		if bound := pending * pool; res.Candidates > bound || res.Scored > bound || pool < 5*(i+1) {
			t.Fatalf("batch %d: %d pending in a pool of %d: %d candidate pairs, %d scored", i, pending, pool, res.Candidates, res.Scored)
		}
	}
	got, want := tm.FusedRecords(), batchOracle(tm)
	if !bytes.Equal(encodeRecords(got), encodeRecords(want)) {
		t.Fatalf("fused view of %d records differs from the batch pass's %d", len(got), len(want))
	}
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
