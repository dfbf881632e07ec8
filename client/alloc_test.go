//go:build !race

// The race detector makes sync.Pool drop a quarter of what it is given, so
// an allocation count means nothing under it.

package client

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

// findPage is the body the server writes for a ten-item /v1/find page.
func findPage(t *testing.T) []byte {
	items := make([]Entity, 10)
	for i := range items {
		items[i] = Entity{"name": fmt.Sprintf("The Walking Dead, part %d", i), "type": "Movie", "uid": fmt.Sprint(1000 + i)}
	}
	body, err := json.MarshalIndent(map[string]any{"data": List[Entity]{Items: items, Total: 6137, Limit: 10, Offset: 20}}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestFindPageDecodeAllocBudget: a find page is read into a pooled buffer
// and decoded in one pass, each item straight into a map sized for its
// members, so it costs the page's own maps and strings — one allocation
// per map, key and value — and the item slice's growth, not a copy of the
// body, a second parse of its data or a map grown member by member.
func TestFindPageDecodeAllocBudget(t *testing.T) {
	page := findPage(t)
	rd := bytes.NewReader(page)
	decode := func() {
		rd.Reset(page)
		var env envelope[List[Entity]]
		if decodeErr, err := readEnvelope(rd, &env); decodeErr != nil || err != nil || len(env.Data.Items) != 10 {
			t.Fatal(decodeErr, err)
		}
	}
	n := testing.AllocsPerRun(200, decode)
	t.Logf("decoding a %d-byte find page allocates %.1f times", len(page), n)
	if n > 95 {
		t.Errorf("decoding a find page allocates %.1f times, budget 95", n)
	}
}
