package extract

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/record"
	"repro/internal/store"
)

// The store's heap is its documents. The text load stores each one as its
// codec bytes (AppendDocs, store.AdoptDocs), so a document's heap is the
// Doc and the bytes it holds, strings included. As built field trees the
// same kind of documents cost 438 and 1 448 bytes, not counting the strings
// they shared with the fragment, and 822 and 2 800 before record.Value and
// DocValue were made compact.
const (
	entityDocBudget   = 262 // bytes per entity document with three attributes
	instanceDocBudget = 868 // bytes per six-reference instance document
)

func TestValueSizes(t *testing.T) {
	if n := unsafe.Sizeof(record.Value{}); n > 32 {
		t.Errorf("record.Value is %d bytes, budget 32", n)
	}
	if n := unsafe.Sizeof(store.DocValue{}); n > 40 {
		t.Errorf("store.DocValue is %d bytes, budget 40", n)
	}
}

// heapPerDoc reports the live heap, after collection, that n calls of
// build add, per call.
func heapPerDoc(n int, build func() []*store.Doc) float64 {
	keep := make([][]*store.Doc, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = build()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keep)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(n)
}

func TestDocumentHeapFootprint(t *testing.T) {
	const n = 20_000
	const url = "http://matildathemusical.example.com"
	const entityText = "Wicked tickets $27, Tues at 7pm."
	const instanceText = "Matilda at the Shubert Theatre in New York: Tim Minchin, Roald Dahl and the Broadway League."
	p := NewParser()
	if e := p.Parse(entityText).Entities; len(e) != 1 || len(e[0].Attributes) != 3 {
		t.Fatalf("entity fixture drifted: %+v", e)
	}
	if e := p.Parse(instanceText).Entities; len(e) != 6 {
		t.Fatalf("instance fixture drifted: %+v", e)
	}
	var buf []byte
	var ends []int
	// doc adopts the i'th document AppendDocs writes for text alone, as
	// the load adopts a fragment's: its bytes copied, one Doc.
	doc := func(text string, i int) func() []*store.Doc {
		return func() []*store.Doc {
			buf, ends = p.AppendDocs(buf[:0], ends[:0], text, url)
			lo := 0
			if i > 0 {
				lo = ends[i-1]
			}
			docs, err := store.AdoptDocs(buf[lo:ends[i]], []int{ends[i] - lo})
			if err != nil {
				t.Fatal(err)
			}
			return []*store.Doc{&docs[0]}
		}
	}
	perEntity := heapPerDoc(n, doc(entityText, 1))
	perInstance := heapPerDoc(n, doc(instanceText, 0))
	t.Logf("heap per stored document: entity %.0f B (budget %d), six-reference instance %.0f B (budget %d)",
		perEntity, entityDocBudget, perInstance, instanceDocBudget)
	if perEntity > entityDocBudget {
		t.Errorf("an entity document holds %.0f B of heap, budget %d", perEntity, entityDocBudget)
	}
	if perInstance > instanceDocBudget {
		t.Errorf("an instance document holds %.0f B of heap, budget %d", perInstance, instanceDocBudget)
	}
}
