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
// detail. limit <= 0 returns every feed; an empty show is an invalid
// argument.
//
// The ranking runs in the store, next to the text: one ranked query whose
// Contains filter the instance store's inverted text index serves, each
// shard scoring its candidates and returning only its best limit texts,
// which the router ranks again and cuts. Relevance is the best single
// sentence about the queried show: "grossed" amounts co-occurring with the
// show name dominate, then mention count and award context. Scoring
// per-sentence (max, not sum) keeps a fragment that merely mentions many
// shows from outranking a dense box-office statement about this one. Ties
// break toward longer, then lexicographically smaller feeds.
func (e *Engine) TextFeeds(ctx context.Context, show string, limit int) ([]string, error) {
	if limit <= 0 {
		limit = store.NoLimit
	}
	res, err := e.Instances.QueryCtx(ctx, store.Query{
		Filter: store.Contains("text", show),
		Limit:  limit,
		Fields: textField,
		Rank: &store.Rank{Path: "text", Terms: []store.Term{
			{Text: show, Weight: 2},
			{Text: "grossed", Weight: 4},
			{Text: "award-winning", Weight: 1},
		}},
	})
	if err != nil {
		return nil, err
	}
	feeds := make([]string, len(res.Docs))
	for i, d := range res.Docs {
		feeds[i] = d.PathString("text")
	}
	return feeds, nil
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
	if structured == nil {
		return webText.Clone()
	}
	out := webText.CloneCap(webText.Len() + structured.Len())
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
