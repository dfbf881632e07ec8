package store_test

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/store"
)

// BenchmarkTextIndexInsert indexes the text of 2 000 generated fragments,
// the default corpus, into a fresh collection per iteration: the cost of
// the text index's upkeep on the load path, tokenizing included.
func BenchmarkTextIndexInsert(b *testing.B) {
	frags := datagen.GenerateWebText(datagen.WebTextConfig{Fragments: 2000, Seed: 1})
	docs := make([]*store.Doc, len(frags))
	for i, f := range frags {
		docs[i] = store.NewDoc(store.F("source_url", store.Str(f.URL)), store.F("text", store.Str(f.Text)))
	}
	b.ReportAllocs()
	for range b.N {
		c := store.NewCollection("dt.instance", 0)
		c.EnsureIndex(store.IndexSpec{Path: "text", Kind: store.TextIndex})
		c.InsertMany(docs)
	}
}
