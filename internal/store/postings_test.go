package store

import (
	"encoding/binary"
	"math"
	"slices"
	"strconv"
	"testing"
)

// ids returns the list's ids, ascending, in a new slice.
func (p postings) ids() []int64 { return p.appendTo(nil) }

// postingsModel drives three posting lists and their plain []int64 models
// from fuzz bytes.
type postingsModel struct {
	lists  [3]postings
	models [3][]int64
}

// apply reads one operation off data and returns the rest: an append to
// one list of the id last appended again, or of a gap above it of one byte,
// of up to 2^62, or of exactly 2^62. A gap that would pass the highest
// int64 is skipped.
func (m *postingsModel) apply(t *testing.T, data []byte) []byte {
	op := data[0]
	data = data[1:]
	i := int(op>>2) % len(m.lists)
	last := int64(0)
	if n := len(m.models[i]); n > 0 {
		last = m.models[i][n-1]
	}
	var gap int64
	switch op % 4 {
	case 0:
		if last == 0 {
			return data
		}
	case 1:
		if len(data) == 0 {
			return data
		}
		gap, data = int64(data[0])+1, data[1:]
	case 2:
		if len(data) < 8 {
			return data
		}
		gap, data = int64(binary.LittleEndian.Uint64(data)&(1<<62-1))+1, data[8:]
	case 3:
		gap = 1 << 62
	}
	if gap > math.MaxInt64-last {
		return data
	}
	id := last + gap
	added := m.lists[i].add(id)
	if want := gap > 0; added != want {
		t.Fatalf("list %d: add(%d) after %d = %v, want %v", i, id, last, added, want)
	}
	if added {
		m.models[i] = append(m.models[i], id)
	}
	return data
}

// FuzzPostingsMatchesSlice: a posting list appended ids in ascending order,
// the last one repeated included, reads as a plain []int64 holding them
// does — its count, its first id, every id in order, any window a proven
// query cuts from it (offset and limit from the input, limit -1 for none),
// and the union and intersection a query writes into its scratch.
func FuzzPostingsMatchesSlice(f *testing.F) {
	// The first two bytes are the window: offset, limit+1 (0 for none).
	f.Add([]byte{0, 0, 1, 5})                                                                // a singleton
	f.Add([]byte{1, 3, 1, 0, 0, 1, 0, 0, 1, 127, 1, 128, 1, 255})                            // repeats, gaps around a varint byte
	f.Add([]byte{0, 0, 1, 0, 3, 0, 2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x3f, 7, 3}) // gaps of 2^62, then past the end
	f.Add([]byte{2, 4, 1, 9, 5, 3, 9, 1, 4, 6, 3, 5, 2, 8, 0, 0, 0, 0, 0, 0, 0, 1, 9, 2})    // three lists
	long := []byte{5, 4}
	for range 20 {
		long = append(long, 1, 0, 5, 200) // one-byte gaps in one list, two-byte gaps in another
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		offset, limit := int(data[0]%8), int(data[1]%8)-1
		data = data[2:min(len(data), 2+400)]
		var m postingsModel
		for len(data) > 0 {
			data = m.apply(t, data)
		}
		for i, p := range m.lists {
			want := m.models[i]
			if p.len() != len(want) || p.empty() != (len(want) == 0) {
				t.Fatalf("list %d: len %d, empty %v; model holds %d", i, p.len(), p.empty(), len(want))
			}
			if len(want) > 0 && p.first() != want[0] {
				t.Fatalf("list %d: first %d, model %d", i, p.first(), want[0])
			}
			if got := p.ids(); !slices.Equal(got, want) {
				t.Fatalf("list %d: ids %v, model %v", i, got, want)
			}
			pg := page{offset: offset, limit: limit}
			addList(&pg, p, func(id int64) *Doc { return &Doc{raw: strconv.FormatInt(id, 10)} })
			window := want[min(offset, len(want)):]
			if limit >= 0 {
				window = window[:min(limit, len(window))]
			}
			got := make([]int64, len(pg.out))
			for j, d := range pg.out {
				got[j], _ = strconv.ParseInt(d.raw, 10, 64)
			}
			if pg.total != int64(len(want)) || !slices.Equal(got, window) {
				t.Fatalf("list %d, offset %d, limit %d: total %d, window %v; model %d, %v", i, offset, limit, pg.total, got, len(want), window)
			}
		}
		sc := scratchPool.Get().(*scratch)
		defer scratchPool.Put(sc)
		sc.reset()
		var union []int64
		for i, p := range m.lists {
			sc.gather(p)
			union = append(union, m.models[i]...)
		}
		slices.Sort(union)
		union = slices.Compact(union)
		if got := sc.union().ids(); !slices.Equal(got, union) {
			t.Fatalf("union %v, model %v", got, union)
		}
		var both []int64
		for _, id := range m.models[0] {
			if _, ok := slices.BinarySearch(m.models[1], id); ok {
				both = append(both, id)
			}
		}
		if got := sc.intersect(m.lists[0], m.lists[1]).ids(); !slices.Equal(got, both) {
			t.Fatalf("intersection %v, model %v", got, both)
		}
	})
}
