//go:build !race

// The race detector makes sync.Pool drop a quarter of what it is given, so
// an allocation count means nothing under it.

package serve

import (
	"fmt"
	"net/http"
	"testing"

	"repro/internal/record"
	"repro/internal/store"
)

// discardWriter is a ResponseWriter that allocates nothing per response.
type discardWriter struct{ h http.Header }

func (d discardWriter) Header() http.Header       { return d.h }
func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (discardWriter) WriteHeader(int)             {}

// TestWriteJSONAllocBudget: a show body of 24 fields is appended straight
// from its two records into a pooled body, which sorts them in its pooled
// scratch, so writing it allocates nothing: no map, no sorted key list, no
// boxed value and no rendered scalar.
func TestWriteJSONAllocBudget(t *testing.T) {
	web, fused := record.New(), record.New()
	web.Set("SHOW_NAME", record.String("Matilda"))
	web.Set("TEXT_FEED", record.String("grossed 960,998, or 93 percent of the maximum"))
	fused = web.Clone()
	for i := range 20 {
		fused.Set(fmt.Sprintf("ATTRIBUTE_%02d", i), record.String(fmt.Sprintf("value %d of the fused record", i)))
	}
	fused.Set("SEATS", record.Int(1251))
	fused.Set("STARS", record.Float(2.6))
	w := discardWriter{h: http.Header{}}
	write := func() {
		b := dataBody()
		b.show(web, fused)
		b.sendRead(w, nil)
	}
	write()
	n := testing.AllocsPerRun(200, write)
	t.Logf("writing a show body allocates %.1f times", n)
	if n > 0 {
		t.Errorf("writing a show body allocates %.1f times, budget 0", n)
	}
}

// TestWriteFindPageAllocBudget: a ten-item find page is appended straight
// from the store's documents, so writing it allocates nothing either.
func TestWriteFindPageAllocBudget(t *testing.T) {
	docs := make([]*store.Doc, 10)
	for i := range docs {
		docs[i] = store.NewDoc(
			store.F("type", store.Str("Movie")),
			store.F("name", store.Str(fmt.Sprintf("The Walking Dead, part %d", i))),
			store.F("uid", store.Num(int64(1000+i))),
			store.F("entity", store.Nested(store.NewDoc(store.F("x", store.Num(1))))))
	}
	w := discardWriter{h: http.Header{}}
	write := func() {
		b := dataBody()
		page(b, docs, 6137, 10, 20, (*jsonBuf).doc)
		b.sendRead(w, nil)
	}
	write()
	n := testing.AllocsPerRun(200, write)
	t.Logf("writing a find page allocates %.1f times", n)
	if n > 0 {
		t.Errorf("writing a find page allocates %.1f times, budget 0", n)
	}
}
