package dedup

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"slices"

	"repro/internal/record"
)

// groups partitions a Run's records into interchangeable ones: records whose
// profiles under one scorer read equal values and whose blocking-key lists
// are equal. With Featurizer.Attrs the values compared are, per attribute,
// whether it is set, its Kind and its Str — what profileValue reads;
// without, every field's name and value, in field order.
type groups struct {
	of    []int32 // of[i] is record i's group
	first []int   // each group's first record, ascending
	size  []int   // each group's record count
}

// groupRecords groups records by a hash of what their profiles read and
// their keys, confirming equality on a collision. It builds no string per
// record.
func groupRecords(sc *scorer, records []*record.Record, keys [][]string) groups {
	g := groups{of: make([]int32, len(records))}
	rd := reading{sc: sc}
	rd.h.SetSeed(maphash.MakeSeed())
	heads := map[uint64]int32{} // the last group with a hash
	var prev []int32            // prev[id]: the group before id with its hash, or -1
	var read [][]record.Value   // read[id]: what the profile reads of group id, with Attrs
	for i, r := range records {
		h := rd.sum(r, keys[i])
		head, seen := heads[h]
		id := int32(-1)
		if seen {
			for id = head; id >= 0; id = prev[id] {
				if j := g.first[id]; rd.interchangeable(records[j], read[id], r, keys[j], keys[i]) {
					break
				}
			}
		}
		if id < 0 {
			id = int32(len(g.first))
			g.first = append(g.first, i)
			g.size = append(g.size, 0)
			read = append(read, slices.Clone(rd.vals))
			if seen {
				prev = append(prev, head)
			} else {
				prev = append(prev, -1)
			}
			heads[h] = id
		}
		g.of[i] = id
		g.size[id]++
	}
	return g
}

// reading hashes and compares what a scorer's profile reads of a record:
// with Featurizer.Attrs, each attribute's value (null when absent), kept in
// vals for the record at hand; without, its fields. Non-string values are
// rendered into two reused buffers.
type reading struct {
	sc   *scorer
	h    maphash.Hash
	vals []record.Value
	a, b []byte
}

func (rd *reading) sum(r *record.Record, keys []string) uint64 {
	rd.h.Reset()
	if rd.sc.total > 0 {
		rd.vals = rd.vals[:0]
		for _, attr := range rd.sc.attrs {
			v, _ := r.Get(attr.name)
			rd.vals = append(rd.vals, v)
			rd.value(v)
		}
	} else {
		rd.length(r.Len())
		for _, f := range r.Fields() {
			rd.string(f.Name)
			rd.value(f.Value)
		}
	}
	rd.length(len(keys))
	for _, k := range keys {
		rd.string(k)
	}
	return rd.h.Sum64()
}

func (rd *reading) length(n int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(n))
	rd.h.Write(b[:])
}

func (rd *reading) string(s string) {
	rd.length(len(s))
	rd.h.WriteString(s)
}

// value hashes a value's Kind and Str. A null value and an absent one hash
// alike: neither is set.
func (rd *reading) value(v record.Value) {
	rd.h.WriteByte(byte(v.Kind()))
	if v.Kind() == record.KindString {
		rd.string(v.Str())
		return
	}
	rd.a = v.AppendStr(rd.a[:0])
	rd.length(len(rd.a))
	rd.h.Write(rd.a)
}

// interchangeable reports whether record b, the one sum read last, reads
// as record a, which read aRead, with keys ka and kb: every score of one is
// a score of the other.
func (rd *reading) interchangeable(a *record.Record, aRead []record.Value, b *record.Record, ka, kb []string) bool {
	if !slices.Equal(ka, kb) {
		return false
	}
	if rd.sc.total > 0 {
		return slices.EqualFunc(aRead, rd.vals, rd.same)
	}
	fa, fb := a.Fields(), b.Fields()
	return slices.EqualFunc(fa, fb, func(x, y record.Field) bool { return x.Name == y.Name && rd.same(x.Value, y.Value) })
}

// same reports whether two values have one Kind and one Str.
func (rd *reading) same(a, b record.Value) bool {
	switch {
	case a.Kind() != b.Kind():
		return false
	case a.Kind() == record.KindString || a == b:
		return a.Str() == b.Str()
	}
	rd.a, rd.b = a.AppendStr(rd.a[:0]), b.AppendStr(rd.b[:0])
	return bytes.Equal(rd.a, rd.b)
}
