//go:build !race

// The race detector adds allocations of its own, so a count means nothing
// under it.

package datagen

import "testing"

// TestWebTextNextAllocBudget: once its buffers have grown, the stream
// allocates one string per window, whatever the window holds.
func TestWebTextNextAllocBudget(t *testing.T) {
	w := NewWebText(WebTextConfig{Fragments: 1 << 20, Seed: 1})
	for range 20 {
		w.Next(Window)
	}
	if n := testing.AllocsPerRun(50, func() { w.Next(Window) }); n > 1 {
		t.Errorf("a window of %d fragments allocates %.2f times, budget 1", Window, n)
	}
}
