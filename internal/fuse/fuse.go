// Package fuse implements the query side of the fused system: mention
// ranking over the web-text store (Table IV), text-only entity views
// (Table V), and the enrichment join across the integrated global schema
// that adds structured fields to text results (Table VI).
package fuse

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/record"
	"repro/internal/store"
	"repro/internal/textutil"
)

// Discussed is one row of the Table IV ranking.
type Discussed struct {
	Name     string
	Mentions int64
}

// Engine queries the web-text stores.
type Engine struct {
	// Instances is the WEBINSTANCE namespace (text fragments + entity refs).
	Instances *store.Sharded
	// Entities is the WEBENTITIES namespace (typed entity documents).
	Entities *store.Sharded
}

// awardWinningMovies selects what Table IV ranks. The entity store's type_1
// index serves the first conjunct; the second is checked per candidate.
var awardWinningMovies = store.And{
	store.EqStr("type", "Movie"),
	store.EqStr("attributes.award_winning", "true"),
}

// textField is the one field TextFeeds reads off its matches, which is all
// a remote shard ships of them.
var textField = []string{"text"}

// TopDiscussed ranks award-winning movies/shows by mention count in the
// entity store — the Table IV query. Ties break lexicographically. The
// store counts the matches by name, each shard from its index, so only the
// few distinct spellings and their counts leave it; spellings that
// normalize alike are one show, displayed as its first mention spells it
// in shard order, which is why the groups come in first-match order.
func (e *Engine) TopDiscussed(ctx context.Context, k int) ([]Discussed, error) {
	res, err := e.Entities.QueryCtx(ctx, store.Query{Filter: awardWinningMovies, GroupBy: "name"})
	if err != nil {
		return nil, err
	}
	counts := map[string]*Discussed{}
	for _, g := range res.Groups {
		name := textutil.Normalize(g.Key)
		if name == "" {
			continue
		}
		dd, ok := counts[name]
		if !ok {
			dd = &Discussed{Name: displayName(g.Key)}
			counts[name] = dd
		}
		dd.Mentions += g.Count
	}
	out := make([]Discussed, 0, len(counts))
	for _, d := range counts {
		out = append(out, *d)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Mentions != out[j].Mentions {
			return out[i].Mentions > out[j].Mentions
		}
		return out[i].Name < out[j].Name
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out, nil
}

func displayName(s string) string {
	words := strings.Fields(s)
	for i, w := range words {
		r := []rune(w)
		if len(r) > 0 && r[0] >= 'a' && r[0] <= 'z' {
			r[0] = r[0] - 'a' + 'A'
		}
		words[i] = string(r)
	}
	return strings.Join(words, " ")
}

// TextFeeds returns the text fragments mentioning the show, most
// informative first — the demo surfaces the feed richest in box-office
// detail. Relevance counts "grossed" spans, show mentions, and award
// context; ties break toward longer, then lexicographically smaller feeds.
// limit <= 0 returns every feed.
func (e *Engine) TextFeeds(ctx context.Context, show string, limit int) ([]string, error) {
	// The Contains filter is served by the instance store's inverted text
	// index when one exists, so this touches only candidate fragments
	// instead of the whole corpus.
	res, err := e.Instances.QueryCtx(ctx, store.Query{Filter: store.Contains("text", show), Limit: store.NoLimit, Fields: textField})
	if err != nil {
		return nil, err
	}
	// Relevance is the best single sentence about the queried show:
	// "grossed" amounts co-occurring with the show name dominate, then
	// mention count and award context. Scoring per-sentence (max, not sum)
	// keeps a fragment that merely mentions many shows from outranking a
	// dense box-office statement about this one. Scores are computed once
	// per feed, not once per comparison — sentence splitting is the
	// expensive part — and fold case as they search, without lowered copies.
	score := func(s string) int {
		best := 0
		for _, sent := range textutil.Sentences(s) {
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
	// One pass keeps the best limit feeds in a heap whose root is the worst
	// of them, the one the next better feed evicts; only the kept are sorted.
	if limit <= 0 || limit > len(res.Docs) {
		limit = len(res.Docs)
	}
	best := make([]scoredFeed, 0, limit)
	for _, d := range res.Docs {
		text := d.PathString("text")
		f := scoredFeed{feed: text, score: score(text)}
		switch {
		case len(best) < limit:
			best = append(best, f)
			if len(best) == limit {
				// Worst first is a heap already.
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
	return feeds, nil
}

// scoredFeed is one candidate of TextFeeds with its relevance.
type scoredFeed struct {
	feed  string
	score int
}

// before reports whether f ranks ahead of g: by score, then length, then
// lexicographically.
func (f scoredFeed) before(g scoredFeed) bool {
	if f.score != g.score {
		return f.score > g.score
	}
	if len(f.feed) != len(g.feed) {
		return len(f.feed) > len(g.feed)
	}
	return f.feed < g.feed
}

// sinkRoot restores heap order — no feed ranks ahead of its children, so
// h[0] is the worst — after h[0] was replaced.
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

// WebTextRecord builds the Table V view: what the system knows about a show
// from web text alone (SHOW_NAME and TEXT_FEED; no theaters, pricing or
// schedules).
func (e *Engine) WebTextRecord(ctx context.Context, show string) (*record.Record, error) {
	r := record.New()
	r.Source = "webinstance"
	r.Set("SHOW_NAME", record.String(show))
	feeds, err := e.TextFeeds(ctx, show, 1)
	if err != nil {
		return nil, err
	}
	if len(feeds) > 0 {
		r.Set("TEXT_FEED", record.String(feeds[0]))
	}
	return r, nil
}

// Enrich merges the structured record for the same entity into the web-text
// record — the Table VI enrichment join. Fields already present win (text
// evidence is what the user searched); structured fields fill the gaps.
func Enrich(webText *record.Record, structured *record.Record) *record.Record {
	out := webText.Clone()
	if structured == nil {
		return out
	}
	for _, f := range structured.Fields() {
		if f.Value.IsNull() {
			continue
		}
		if !out.Has(f.Name) {
			out.Set(f.Name, f.Value)
		}
	}
	if structured.Source != "" {
		if out.Source != "" {
			out.Source = out.Source + "+" + structured.Source
		} else {
			out.Source = structured.Source
		}
	}
	return out
}

// ShowIndex is a hash index over one attribute of a record set, keyed by
// the normalized attribute value. Built once per fused-view snapshot, it
// turns a per-query O(n) renormalizing scan into a single map probe. A ShowIndex is immutable after NewShowIndex
// and safe for concurrent readers.
type ShowIndex struct {
	attr  string
	byKey map[string][]*record.Record
}

// NewShowIndex indexes records by the normalized value of attr, preserving
// record order within each key.
func NewShowIndex(records []*record.Record, attr string) *ShowIndex {
	ix := &ShowIndex{attr: attr, byKey: make(map[string][]*record.Record, len(records))}
	for _, r := range records {
		key := textutil.Normalize(r.GetString(attr))
		ix.byKey[key] = append(ix.byKey[key], r)
	}
	return ix
}

// Lookup returns the records whose indexed attribute normalizes equal to
// value, in the order they were indexed.
func (ix *ShowIndex) Lookup(value string) []*record.Record {
	return ix.byKey[textutil.Normalize(value)]
}

// FormatKV renders a record in the paper's Table V/VI style: one attribute
// per row, preferred attributes first, values quoted.
func FormatKV(r *record.Record, preferred []string) string {
	var b strings.Builder
	printed := map[string]bool{}
	emit := func(name string) {
		v, ok := r.Get(name)
		if !ok || v.IsNull() {
			return
		}
		key := record.NormalizeName(name)
		if printed[key] {
			return
		}
		printed[key] = true
		fmt.Fprintf(&b, "%-16s %q\n", strings.ToUpper(key), v.Str())
	}
	for _, name := range preferred {
		emit(name)
	}
	for _, f := range r.Fields() {
		emit(f.Name)
	}
	return b.String()
}

// TableVIOrder is the attribute order of the paper's Table VI.
var TableVIOrder = []string{"SHOW_NAME", "THEATER", "PERFORMANCE", "TEXT_FEED", "CHEAPEST_PRICE", "FIRST"}
