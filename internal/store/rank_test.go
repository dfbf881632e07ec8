package store

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"

	"repro/dterr"
	"repro/internal/textutil"
)

// sentencesReference is the slice-returning sentence splitter the text-feed
// ranking used before it walked sentences in place.
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

// scoreReference is the text-feed score before it moved into the store,
// with the show, "grossed" and "award-winning" and their weights 2, 4 and 1
// generalized to r's terms.
func scoreReference(r *Rank, text string) int {
	best := 0
	for _, sent := range sentencesReference(text) {
		mentions := textutil.CountFold(sent, r.Terms[0].Text)
		if mentions == 0 {
			continue
		}
		v := r.Terms[0].Weight * mentions
		for _, t := range r.Terms[1:] {
			v += t.Weight * textutil.CountFold(sent, t.Text)
		}
		if v > best {
			best = v
		}
	}
	return best
}

// rankReference ranks docs, given in the order they match, by a stable sort
// on score, then length, then text, and cuts the window.
func rankReference(r *Rank, docs []*Doc, offset, limit int) []*Doc {
	type scored struct {
		doc   *Doc
		text  string
		score int
	}
	all := make([]scored, len(docs))
	for i, d := range docs {
		text := d.PathString(r.Path)
		all[i] = scored{d, text, scoreReference(r, text)}
	}
	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.score != b.score {
			return a.score > b.score
		}
		if len(a.text) != len(b.text) {
			return len(a.text) > len(b.text)
		}
		return a.text < b.text
	})
	out := make([]*Doc, len(all))
	for i, s := range all {
		out[i] = s.doc
	}
	return paginate(out, offset, limit)
}

// feedDoc is a fragment numbered n, so that documents with one text stay
// apart.
func feedDoc(n int, text string) *Doc {
	return NewDoc(F("source_url", Str(fmt.Sprintf("u%d", n))), F("text", Str(text)), F("n", Num(int64(n))))
}

// sameDocs reports whether got and want are the same documents in the same
// order.
func sameDocs(got, want []*Doc) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].PathString("n") != want[i].PathString("n") {
			return false
		}
	}
	return true
}

// checkRanked runs every window of a ranked query over one collection and a
// three-shard router holding the same texts, against the reference ranking
// of the unranked matches, and checks that the rank moves neither the total
// nor the groups.
func checkRanked(t *testing.T, texts []string, f Filter, r *Rank, windows [][2]int) {
	t.Helper()
	coll := NewCollection("dt.instance", 0)
	coll.EnsureIndex(IndexSpec{Path: "text", Kind: TextIndex})
	sharded := NewSharded("dt.instance", "source_url", 3, 0)
	sharded.EnsureTextIndex("text")
	for i, text := range texts {
		coll.Insert(feedDoc(i, text))
		sharded.Insert(feedDoc(i, text))
	}
	ctx := context.Background()
	query := func(q Query) (local, routed Result) {
		routed, err := sharded.QueryCtx(ctx, q)
		if err != nil {
			t.Fatalf("%+v: %v", q, err)
		}
		return coll.Query(q), routed
	}
	localAll, routedAll := query(Query{Filter: f, Limit: NoLimit, GroupBy: "text"})
	for _, w := range windows {
		q := Query{Filter: f, Offset: w[0], Limit: w[1], GroupBy: "text", Rank: r}
		local, routed := query(q)
		for _, c := range []struct {
			name      string
			got, base Result
		}{{"collection", local, localAll}, {"router", routed, routedAll}} {
			want := rankReference(r, c.base.Docs, w[0], w[1])
			if !sameDocs(c.got.Docs, want) || c.got.Total != c.base.Total || fmt.Sprint(c.got.Groups) != fmt.Sprint(c.base.Groups) {
				t.Fatalf("%s, rank %+v, offset %d limit %d over %q: %d docs of %d, want %d of %d",
					c.name, *r, w[0], w[1], texts, len(c.got.Docs), c.got.Total, len(want), c.base.Total)
			}
		}
	}
}

var rankWindows = [][2]int{{0, NoLimit}, {0, 0}, {0, 1}, {0, 3}, {2, 1}, {2, 3}, {5, NoLimit}, {math.MaxInt, math.MaxInt}}

// feedRank is the text-feed ranking for show.
func feedRank(show string) *Rank {
	return &Rank{Path: "text", Terms: []Term{{show, 2}, {"grossed", 4}, {"award-winning", 1}}}
}

// TestRankedQueryMatchesReference ranks generated fragments, with many ties
// in score, length and text, under the text-feed weights and under weights
// of both signs, filtered by the first term and not filtered at all.
func TestRankedQueryMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	parts := []string{"Matilda", "matilda", "grossed 960,998", "award-winning", "Wicked", "on W. 44th St", "filler", ".", "!", " ", "Ça"}
	var texts []string
	for i := 0; i < 300; i++ {
		var b strings.Builder
		for j := rng.Intn(4); j >= 0; j-- {
			b.WriteString(parts[rng.Intn(len(parts))])
			if rng.Intn(3) == 0 {
				b.WriteString(". ")
			} else {
				b.WriteString(" ")
			}
		}
		texts = append(texts, b.String())
	}
	texts = append(texts, texts[:20]...) // repeated texts tie on everything
	for _, r := range []*Rank{
		feedRank("Matilda"),
		feedRank("matilda"),
		{Path: "text", Terms: []Term{{"grossed", -3}, {"Matilda", 5}}},
		{Path: "text", Terms: []Term{{"Wicked", 1}}},
	} {
		checkRanked(t, texts, Contains("text", r.Terms[0].Text), r, rankWindows)
		checkRanked(t, texts, nil, r, rankWindows)
	}
}

// TestRankRefusals: a router refuses a rank it could not apply to what the
// shards send it; a collection scores a text without the path as empty.
func TestRankRefusals(t *testing.T) {
	s := NewSharded("dt.instance", "source_url", 2, 0)
	s.Insert(feedDoc(0, "Matilda grossed 960,998."))
	ctx := context.Background()
	for _, q := range []Query{
		{Limit: 1, Rank: &Rank{Terms: []Term{{"Matilda", 1}}}},
		{Limit: 1, Rank: &Rank{Path: "text"}},
		{Limit: 1, Rank: &Rank{Path: "text", Terms: []Term{{"", 1}, {"grossed", 1}}}},
		{Limit: 1, Fields: []string{"source_url"}, Rank: feedRank("Matilda")},
		{Limit: 1, Fields: []string{"text"}, Rank: &Rank{Path: "texts", Terms: []Term{{"Matilda", 1}}}},
	} {
		if _, err := s.QueryCtx(ctx, q); !errors.Is(err, dterr.ErrInvalidArgument) {
			t.Errorf("rank %+v, fields %q: %v, want invalid argument", *q.Rank, q.Fields, err)
		}
	}
	q := Query{Limit: 1, Fields: []string{"n", "text"}, Rank: &Rank{Path: "text.body", Terms: []Term{{"Matilda", 1}}}}
	if res, err := s.QueryCtx(ctx, q); err != nil || len(res.Docs) != 1 {
		t.Errorf("a rank path under a listed field: %d docs, %v", len(res.Docs), err)
	}
}

// FuzzRankMatchesReference ranks the '|'-separated texts of corpus under
// two fuzzed terms and weights, over one collection and a router, against
// the reference ranking.
func FuzzRankMatchesReference(f *testing.F) {
	f.Add("Matilda grossed 960,998. The show is award-winning.|Matilda ticket sales rose.|Wicked had a fine week.", "Matilda", "grossed", 2, 4, uint8(1), uint8(0))
	f.Add("a. B a a|a|A. A. a|a|a a", "a", "b", 1, -1, uint8(2), uint8(1))
	f.Add("ÀÉ. Été àé!|İstanbul. istanbul|x", "àé", "i", 3, 7, uint8(0), uint8(2))
	f.Add("bad \xff byte. Next one\xc3. End|\xff\xfe", "\xfe", "e", math.MaxInt, math.MaxInt, uint8(5), uint8(0))
	f.Fuzz(func(t *testing.T, corpus, first, second string, w1, w2 int, limit, offset uint8) {
		texts := strings.Split(corpus, "|")
		if first == "" || len(texts) > 64 {
			return
		}
		r := &Rank{Path: "text", Terms: []Term{{first, w1}, {second, w2}}}
		windows := [][2]int{{int(offset), int(limit)}, {int(offset), NoLimit}}
		checkRanked(t, texts, nil, r, windows)
		checkRanked(t, texts, Contains("text", first), r, windows)
	})
}
