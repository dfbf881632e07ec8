package store

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/textutil"
)

func textDoc(key, text string) *Doc {
	return NewDoc(F("key", Str(key)), F("text", Str(text)))
}

var textCorpus = []string{
	"Matilda grossed $2m this week at the Shubert Theatre.",
	"The award-winning show Matilda is discussed everywhere.",
	"Matildas everywhere agree: a fine show.",           // plural swallows the name
	"MATILDA IN CAPITALS, reviewed favorably.",          // case folding
	"breathe lion king energy tonight",                  // "the lion king" hides across a token edge
	"The Lion King opened to a record crowd.",           // the phrase proper
	"the lion, king of beasts, is unrelated",            // punctuation breaks the phrase
	"O'Brien's favorite: Matilda's second act.",         // intra-word punctuation
	"a needle in a haystack",                            // exact token
	"needles and pins",                                  // query term inside a longer token
	"Chicago grossed $1m; the Chicago company expands.", // repeated token, one doc
	"no relevant terms here at all",
}

// buildTextCollections returns two collections with identical contents, one
// carrying the inverted text index — the subjects of the equivalence tests.
func buildTextCollections() (indexed, plain *Collection) {
	indexed = NewCollection("dt.withidx", 0)
	plain = NewCollection("dt.scanonly", 0)
	for i, text := range textCorpus {
		d := textDoc(fmt.Sprintf("k%02d", i), text)
		indexed.Insert(d)
		plain.Insert(d)
	}
	indexed.EnsureIndex(IndexSpec{Path: "text", Kind: TextIndex})
	return indexed, plain
}

var textQueries = []string{
	"Matilda",       // single term, several forms
	"matilda",       // lower-case query
	"MATILDA",       // upper-case query
	"needle",        // matches both the token and "needles"
	"the lion king", // multiword with edge-term traps
	"lion king",     // two terms, both edge
	"grossed",       // mid-corpus token
	"Chicago",       // repeated within one doc: must not duplicate results
	"king of beasts",
	"absent-from-corpus",
	"o'brien",   // punctuation: index must decline, scan must serve
	"$2m",       // punctuation
	"  matilda", // leading spaces
	"act.",      // trailing punctuation
	"",          // empty: matches everything on the scan path
}

// TestTextIndexScanEquivalence is the index-vs-scan equivalence gate: for
// every query, the indexed collection must return exactly the documents,
// in exactly the order, of the scan-only collection.
func TestTextIndexScanEquivalence(t *testing.T) {
	indexed, plain := buildTextCollections()
	for _, q := range textQueries {
		got := find(indexed, Contains("text", q))
		want := find(plain, Contains("text", q))
		if len(got) != len(want) {
			t.Errorf("query %q: indexed %d docs, scan %d", q, len(got), len(want))
			continue
		}
		for i := range got {
			if got[i].PathString("key") != want[i].PathString("key") {
				t.Errorf("query %q: doc %d = %q, scan has %q",
					q, i, got[i].PathString("key"), want[i].PathString("key"))
			}
		}
	}
}

// TestTextIndexMaintenance checks inserts and replays keep postings in
// step with the documents, each list in id order.
func TestTextIndexMaintenance(t *testing.T) {
	c := NewCollection("dt.maint", 0)
	c.EnsureIndex(IndexSpec{Path: "text", Kind: TextIndex})
	c.Insert(textDoc("a", "original needle text"))
	if n := count(c, Contains("text", "needle")); n != 1 {
		t.Fatalf("after insert: %d matches", n)
	}
	c.Insert(textDoc("b", "a haystack text"))
	if err := c.ApplyReplay(5, textDoc("c", "needle needle in the haystack")); err != nil {
		t.Fatal(err)
	}
	if n := count(c, Contains("text", "needle")); n != 2 {
		t.Errorf("after a replay: %d needle matches, want 2", n)
	}
	if n := count(c, Contains("text", "haystack")); n != 2 {
		t.Errorf("after a replay: %d haystack matches, want 2", n)
	}
	for tok, want := range map[string][]int64{"needle": {1, 5}, "haystack": {2, 5}, "text": {1, 2}, "original": {1}} {
		if got := c.text["text"].tokens[tok].ids(); !slices.Equal(got, want) {
			t.Errorf("token %q lists ids %v, want %v", tok, got, want)
		}
	}
}

// TestTextIndexExplain verifies the planner reports the text index for
// clean substring queries and a scan for queries it cannot bound.
func TestTextIndexExplain(t *testing.T) {
	indexed, plain := buildTextCollections()
	if ex := explain(indexed, Contains("text", "matilda")); ex.AccessPath != "index" || ex.IndexKind != "text" {
		t.Errorf("clean query plan = %+v", ex)
	}
	if ex := explain(indexed, Contains("text", "o'brien")); ex.AccessPath != "scan" {
		t.Errorf("punctuated query plan = %+v", ex)
	}
	if ex := explain(plain, Contains("text", "matilda")); ex.AccessPath != "scan" {
		t.Errorf("unindexed plan = %+v", ex)
	}
}

// TestTextIndexSharded checks the router-level EnsureTextIndex serves the
// same results as scanning across shards, at one shard and at more shards
// than some hold documents, and that both find the two "needle" fragments.
func TestTextIndexSharded(t *testing.T) {
	ctx := context.Background()
	for _, shards := range []int{1, 4, 16} {
		withIdx := NewSharded("dt.txt", "key", shards, 0)
		scanOnly := NewSharded("dt.txt", "key", shards, 0)
		for i, text := range textCorpus {
			d := textDoc(fmt.Sprintf("k%02d", i), text)
			withIdx.Insert(d)
			scanOnly.Insert(d)
		}
		withIdx.EnsureTextIndex("text")
		for _, q := range textQueries {
			got, _ := withIdx.FindCtx(ctx, Contains("text", q))
			want, _ := scanOnly.FindCtx(ctx, Contains("text", q))
			if !slices.Equal(got, want) {
				t.Errorf("%d shards, query %q: indexed %d docs, scan %d, or in another order", shards, q, len(got), len(want))
			}
			if q == "needle" && len(want) != 2 {
				t.Errorf("%d shards: scan found %d needle fragments, want 2", shards, len(want))
			}
		}
	}
}

// docTokensReference is the body docTokens had before it tokenized into
// the index's scratch: AppendTokens, ToLower, sort, compact.
func docTokensReference(d *Doc, path string) []string {
	v, ok := d.Path(path)
	if !ok {
		return nil
	}
	var toks []string
	collect := func(s string) {
		for _, t := range textutil.AppendTokens(nil, s) {
			toks = append(toks, strings.ToLower(t.Text))
		}
	}
	if v.IsList() {
		for it := v.Elems(); ; {
			e, ok := it.Next()
			if !ok {
				break
			}
			if e.IsScalar() && !e.Scalar().IsNull() {
				collect(e.Scalar().Str())
			}
		}
	} else if v.IsScalar() && !v.Scalar().IsNull() {
		collect(v.Scalar().Str())
	}
	slices.Sort(toks)
	return slices.Compact(toks)
}

// checkDocTokens compares the tokens docTokens finds in d's value at the
// index's path (none when d lacks it) with the reference.
func checkDocTokens(t *testing.T, tx *textIndex, d *Doc) {
	t.Helper()
	var got []string
	v, _ := d.Path(tx.Path)
	for _, sp := range tx.docTokens(v) {
		got = append(got, string(tx.lower[sp.lo:sp.hi]))
	}
	if want := docTokensReference(d, tx.Path); !slices.Equal(got, want) {
		t.Fatalf("docTokens(%v) = %q, reference %q", d, got, want)
	}
}

// TestDocTokensMatchSetReference checks the sorted, compacted token spans
// against the reference: every token lowercased, each once, sorted. One
// index serves every document, so each call also reuses the last one's
// scratch.
func TestDocTokensMatchSetReference(t *testing.T) {
	tx := newTextIndex("text")
	texts := append(slices.Clone(textCorpus), "Ærø ÆRØ ærø", "İstanbul ISTANBUL", "")
	docs := []*Doc{NewDoc(), NewDoc(F("text", Num(42))), NewDoc(F("text", List(Str("Wicked WICKED"), Num(7), Str("wicked once"))))}
	for _, text := range texts {
		docs = append(docs, textDoc("k", text))
	}
	for _, d := range docs {
		checkDocTokens(t, tx, d)
	}
}

// FuzzDocTokensMatchesReference runs a list of two values and then the
// first alone through one index.
func FuzzDocTokensMatchesReference(f *testing.F) {
	for _, text := range textCorpus {
		f.Add(text, "")
	}
	f.Add("Ærø ÆRØ ærø", "İstanbul ISTANBUL")
	f.Fuzz(func(t *testing.T, a, b string) {
		tx := newTextIndex("text")
		checkDocTokens(t, tx, NewDoc(F("text", List(Str(a), Str(b)))))
		checkDocTokens(t, tx, textDoc("k", a))
	})
}

// TestTextIndexReindexAllocs: indexing again the document that ends every
// list it is in — what a list repeating an element does — is lookups into
// known tokens and nothing more.
func TestTextIndexReindexAllocs(t *testing.T) {
	tx := newTextIndex("text")
	v, _ := textDoc("k", textCorpus[0]+" "+textCorpus[7]).Path("text")
	tx.insert(1, v)
	tx.insert(2, v)
	if n := testing.AllocsPerRun(100, func() { tx.insert(2, v) }); n != 0 {
		t.Errorf("indexing the last document again allocates %.0f times, budget 0", n)
	}
	for tok, p := range tx.tokens {
		if !slices.Equal(p.ids(), []int64{1, 2}) {
			t.Errorf("token %q lists ids %v, want [1 2]", tok, p.ids())
		}
	}
}
