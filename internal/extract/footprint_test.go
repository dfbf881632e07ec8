package extract

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/record"
	"repro/internal/store"
)

// The store's heap is its documents, and a document's heap is its field
// values: a value carries its payload and nothing more. Before the compact
// value (PR 20) the same documents cost 822 and 2 800 bytes.
const (
	entityDocBudget   = 480   // bytes per EntityDocs document
	instanceDocBudget = 1_550 // bytes per six-reference InstanceDoc document
)

func TestValueSizes(t *testing.T) {
	if n := unsafe.Sizeof(record.Value{}); n > 32 {
		t.Errorf("record.Value is %d bytes, budget 32", n)
	}
	if n := unsafe.Sizeof(store.DocValue{}); n > 48 {
		t.Errorf("store.DocValue is %d bytes, budget 48", n)
	}
}

// heapPerDoc reports the live heap, after collection, that n calls of build
// add, per call. The strings the documents hold are shared, so only the
// documents' own structure is counted.
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
	entity := &Result{Entities: []Entity{{
		Type: Movie, Name: "Matilda",
		Attributes: []Attr{{Key: "price", Value: "$27"}, {Key: "schedule", Value: "Tues at 7pm"}},
	}}}
	instance := &Result{
		Text: "Matilda at the Shubert Theatre in New York: Tim Minchin, Roald Dahl and the Broadway League.",
		Entities: []Entity{
			{Type: Movie, Name: "Matilda"}, {Type: Facility, Name: "Shubert Theatre"},
			{Type: City, Name: "New York"}, {Type: Person, Name: "Tim Minchin"},
			{Type: Person, Name: "Roald Dahl"}, {Type: Organization, Name: "Broadway League"},
		},
	}

	perEntity := heapPerDoc(n, func() []*store.Doc { return entity.EntityDocs(url) })
	perInstance := heapPerDoc(n, func() []*store.Doc { return []*store.Doc{instance.InstanceDoc(url)} })
	t.Logf("heap per document: entity %.0f B (budget %d), six-reference instance %.0f B (budget %d)",
		perEntity, entityDocBudget, perInstance, instanceDocBudget)
	if perEntity > entityDocBudget {
		t.Errorf("an entity document holds %.0f B of heap, budget %d", perEntity, entityDocBudget)
	}
	if perInstance > instanceDocBudget {
		t.Errorf("an instance document holds %.0f B of heap, budget %d", perInstance, instanceDocBudget)
	}
}
