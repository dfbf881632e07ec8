//go:build !race

// The race detector makes sync.Pool drop a quarter of what it is given, so
// an allocation count means nothing under it.

package serve

import (
	"fmt"
	"net/http"
	"testing"
)

// discardWriter is a ResponseWriter that allocates nothing per response.
type discardWriter struct{ h http.Header }

func (d discardWriter) Header() http.Header       { return d.h }
func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (discardWriter) WriteHeader(int)             {}

// TestWriteJSONAllocBudget: a show envelope of 24 fields is encoded through
// the pooled buffer and encoder, so writeJSON costs what encoding/json
// spends on sorting the two maps' keys and boxing the value, not a buffer
// or encoder per response.
func TestWriteJSONAllocBudget(t *testing.T) {
	view := showView{WebText: map[string]string{}, Fused: map[string]string{}}
	for i := range 22 {
		view.Fused[fmt.Sprintf("ATTRIBUTE_%02d", i)] = fmt.Sprintf("value %d of the fused record", i)
	}
	view.WebText["SHOW_NAME"], view.WebText["TEXT_FEED"] = "Matilda", "grossed 960,998, or 93 percent of the maximum"
	w := discardWriter{h: http.Header{}}
	writeJSON(w, http.StatusOK, envelope{Data: view})
	n := testing.AllocsPerRun(200, func() { writeJSON(w, http.StatusOK, envelope{Data: view}) })
	t.Logf("writeJSON of a show envelope allocates %.1f times", n)
	if n > 55 {
		t.Errorf("writeJSON of a show envelope allocates %.1f times, budget 55", n)
	}
}
