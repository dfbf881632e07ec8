package core

import (
	"context"
	"slices"
	"sort"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"

	"repro/internal/cluster"
	"repro/internal/store"
	"repro/internal/textutil"
)

// The text-feed ranking as it ran on the coordinator before the store
// ranked: every fragment naming the show fetched, split into a slice of
// sentences, scored, and the best kept in a heap. The ranked query must
// return what this returns, byte for byte.

// sentencesReference is the slice-returning sentence splitter the ranking
// used.
func sentencesReference(text string) []string {
	out := make([]string, 0, 4)
	start := 0
	var prev, prev2 rune
	seen := 0
	for i := 0; i < len(text); seen++ {
		r, w := utf8.DecodeRuneInString(text[i:])
		end := i + w
		if r == '.' || r == '!' || r == '?' {
			j := end
			var next rune
			for j < len(text) {
				var nw int
				if next, nw = utf8.DecodeRuneInString(text[j:]); !unicode.IsSpace(next) {
					break
				}
				j += nw
			}
			initial := j > end && j < len(text) &&
				(unicode.IsUpper(next) || unicode.IsDigit(next) || next == '"' || next == '\'')
			abbrev := r == '.' && seen >= 1 && unicode.IsUpper(prev) && (seen < 2 || !unicode.IsLetter(prev2))
			if initial && !abbrev {
				if sent := strings.TrimSpace(text[start:end]); sent != "" {
					out = append(out, sent)
				}
				start = j
			}
		}
		prev2, prev = prev, r
		i = end
	}
	if rest := strings.TrimSpace(text[start:]); rest != "" {
		out = append(out, rest)
	}
	return out
}

type scoredFeed struct {
	feed  string
	score int
}

func (f scoredFeed) before(g scoredFeed) bool {
	if f.score != g.score {
		return f.score > g.score
	}
	if len(f.feed) != len(g.feed) {
		return len(f.feed) > len(g.feed)
	}
	return f.feed < g.feed
}

func sinkRoot(h []scoredFeed) {
	for i := 0; ; {
		worst := i
		for kid := 2*i + 1; kid <= 2*i+2 && kid < len(h); kid++ {
			if h[worst].before(h[kid]) {
				worst = kid
			}
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// textFeedsReference ranks the texts of the fragments naming show and
// returns the best limit of them (every one for limit <= 0).
func textFeedsReference(texts []string, show string, limit int) []string {
	score := func(s string) int {
		best := 0
		for _, sent := range sentencesReference(s) {
			mentions := textutil.CountFold(sent, show)
			if mentions == 0 {
				continue
			}
			v := 4*textutil.CountFold(sent, "grossed") +
				2*mentions +
				textutil.CountFold(sent, "award-winning")
			if v > best {
				best = v
			}
		}
		return best
	}
	if limit <= 0 || limit > len(texts) {
		limit = len(texts)
	}
	best := make([]scoredFeed, 0, limit)
	for _, text := range texts {
		f := scoredFeed{feed: text, score: score(text)}
		switch {
		case len(best) < limit:
			best = append(best, f)
			if len(best) == limit {
				sort.Slice(best, func(i, j int) bool { return best[j].before(best[i]) })
			}
		case f.before(best[0]):
			best[0] = f
			sinkRoot(best)
		}
	}
	sort.Slice(best, func(i, j int) bool { return best[i].before(best[j]) })
	feeds := make([]string, len(best))
	for i, f := range best {
		feeds[i] = f.feed
	}
	return feeds
}

// texts returns the text of each document.
func texts(docs []*store.Doc) []string {
	out := make([]string, len(docs))
	for i, d := range docs {
		out[i] = d.PathString("text")
	}
	return out
}

// TestTextFeedsMatchCoordinatorRanking runs the pipeline at seeds 1–3 and,
// for every fused show name and a few that are not, checks the ranked
// text-feed query — on one collection holding every fragment, on the
// pipeline's four local shards, and on the same shards behind a node — and
// TextFeeds itself against the coordinator-side reference, at every window.
func TestTextFeedsMatchCoordinatorRanking(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 3; seed++ {
		tm := New(Config{Shards: 4, Seed: seed})
		if err := tm.Run(ctx); err != nil {
			t.Fatal(err)
		}
		ns := tm.Instances.NS()
		whole := store.NewCollection(ns, 0)
		whole.EnsureIndex(store.IndexSpec{Path: "text", Kind: store.TextIndex})
		node := cluster.NewNode("feeds")
		backends := make([]store.ShardBackend, tm.Instances.NumShards())
		for i := range backends {
			docs := tm.Instances.Shard(i).Query(store.Query{Limit: store.NoLimit}).Docs
			whole.InsertMany(docs)
			coll := store.NewCollection(ns, 0)
			coll.EnsureIndex(store.IndexSpec{Path: "text", Kind: store.TextIndex})
			coll.InsertMany(docs)
			node.AddShard(cluster.ShardKey(ns, i), coll)
			backends[i] = cluster.NewRemoteShard(ns, i, cluster.Loopback{Node: node}, nil)
		}
		remote, err := store.NewShardedBackends(ns, "source_url", backends)
		if err != nil {
			t.Fatal(err)
		}
		stores := []struct {
			name  string
			query func(store.Query) (store.Result, error)
		}{
			{"one collection", func(q store.Query) (store.Result, error) { return whole.Query(q), nil }},
			{"four local shards", func(q store.Query) (store.Result, error) { return tm.Instances.QueryCtx(ctx, q) }},
			{"four remote shards", func(q store.Query) (store.Result, error) { return remote.QueryCtx(ctx, q) }},
		}

		var names []string
		for _, r := range tm.FusedRecords() {
			if name := r.GetString("SHOW_NAME"); name != "" && !slices.Contains(names, name) {
				names = append(names, name)
			}
		}
		if len(names) < 5 {
			t.Fatalf("seed %d: %d fused show names", seed, len(names))
		}
		names = append(names, "Chicago", strings.ToLower(names[0]), "Nonesuch Revue")
		var mentioned int
		for _, name := range names {
			filter := store.Contains("text", name)
			matches, err := tm.Instances.FindCtx(ctx, filter)
			if err != nil {
				t.Fatal(err)
			}
			if len(matches) > 3 {
				mentioned++
			}
			all := texts(matches)
			rank := &store.Rank{Path: "text", Terms: []store.Term{{Text: name, Weight: 2}, {Text: "grossed", Weight: 4}, {Text: "award-winning", Weight: 1}}}
			for _, limit := range []int{0, 1, 3} {
				for _, offset := range []int{0, 2} {
					// Limit 0 asks TextFeeds for every feed, the store for
					// none: the store's is NoLimit.
					q := store.Query{Filter: filter, Offset: offset, Limit: store.NoLimit, Fields: []string{"text"}, Rank: rank}
					want := textFeedsReference(all, name, 0)
					if limit > 0 {
						q.Limit, want = limit, textFeedsReference(all, name, offset+limit)
					}
					want = want[min(offset, len(want)):]
					for _, s := range stores {
						res, err := s.query(q)
						if err != nil || !slices.Equal(texts(res.Docs), want) || res.Total != int64(len(all)) {
							t.Fatalf("seed %d, %s, %q, offset %d limit %d: %d feeds of %d (%v), want %d of %d",
								seed, s.name, name, offset, limit, len(res.Docs), res.Total, err, len(want), len(all))
						}
					}
				}
				feeds, err := tm.Query.TextFeeds(ctx, name, limit)
				if want := textFeedsReference(all, name, limit); err != nil || !slices.Equal(feeds, want) {
					t.Fatalf("seed %d: TextFeeds(%q, %d) = %d feeds (%v), want %d", seed, name, limit, len(feeds), err, len(want))
				}
			}
		}
		if mentioned < 5 {
			t.Fatalf("seed %d: %d of %d names have more than three fragments, too few to cut windows from", seed, mentioned, len(names))
		}
	}
}
