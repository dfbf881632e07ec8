package store

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"
	"time"

	"repro/dterr"
	"repro/internal/record"
)

// refDecodeDocList is the document list reader the cluster wire had before
// a list could be read a window at a time, over the reference reader: every
// document read whole, nothing past the list, no document over or short of
// its length, and none that the reference refuses. It returns each
// document's bytes.
func refDecodeDocList(data []byte) ([][]byte, error) {
	rd := bytes.NewReader(data)
	n, err := binary.ReadUvarint(rd)
	if err != nil {
		return nil, dterr.Wrapf(dterr.CodeInternal, err, "cluster: doc list count")
	}
	if n > uint64(rd.Len()) {
		return nil, dterr.Newf(dterr.CodeInternal, "cluster: doc list count %d exceeds remaining bytes", n)
	}
	docs := make([][]byte, 0, n)
	for i := uint64(0); i < n; i++ {
		size, err := binary.ReadUvarint(rd)
		if err != nil || size > uint64(rd.Len()) {
			return nil, dterr.Newf(dterr.CodeInternal, "cluster: doc %d length", i)
		}
		doc := make([]byte, size)
		_, _ = rd.Read(doc)
		if _, err := refDoc(doc); err != nil {
			return nil, dterr.Wrapf(dterr.CodeInternal, err, "cluster: doc %d", i)
		}
		docs = append(docs, doc)
	}
	if rd.Len() != 0 {
		return nil, dterr.Newf(dterr.CodeInternal, "cluster: %d bytes after the doc list", rd.Len())
	}
	return docs, nil
}

// sameEncodings reports whether got's documents encode to want's bytes.
func sameEncodings(got []*Doc, want [][]byte) bool {
	return slices.EqualFunc(got, want, func(d *Doc, b []byte) bool { return bytes.Equal(EncodeDoc(d), b) })
}

// encodeDocList writes docs as the cluster wire's document list.
func encodeDocList(docs []*Doc) []byte {
	var buf bytes.Buffer
	PutUvarint(&buf, uint64(len(docs)))
	for _, d := range docs {
		PutBytes(&buf, EncodeDoc(d))
	}
	return buf.Bytes()
}

// listDocs are documents holding every kind of value the codec writes.
func listDocs() []*Doc {
	inner := NewDoc(F("award_winning", Str("true")), F("gross", Scalar(record.Float(960998.5))))
	return []*Doc{
		NewDoc(F("name", Str("Matilda")), F("tags", List(Str("a"), Num(2), Nested(inner)))),
		NewDoc(),
		NewDoc(F("name", Str("The Walking Dead")), F("attributes", Nested(inner)), F("n", Num(math.MinInt64))),
		NewDoc(F("name", Str("")), F("on", Scalar(record.Bool(true))), F("none", Scalar(record.Null))),
		NewDoc(F("when", Scalar(record.Time(time.Date(2013, 6, 9, 20, 30, 1, 500, time.UTC)))), F("name", Str("Jersey Boys"))),
	}
}

// docListSeeds are lists the window fuzz starts from: whole, torn, with a
// byte after them, with a length that lies, with a malformed document in
// the middle, empty, and ending in a document that repeats a nested name,
// which PutDoc never writes.
func docListSeeds() [][]byte {
	good := encodeDocList(listDocs())
	lied := slices.Clone(good)
	lied[1]++ // the first document's length runs into the second
	docs := listDocs()
	var bad bytes.Buffer
	PutUvarint(&bad, uint64(len(docs)))
	for i, d := range docs {
		enc := EncodeDoc(d)
		if i == 2 {
			name, _ := d.Field(0)
			enc[2+len(name)] ^= 0x40 // the third document's first value has no tag
		}
		PutBytes(&bad, enc)
	}
	var repeated bytes.Buffer
	PutUvarint(&repeated, uint64(len(docs)+1))
	for _, d := range docs {
		PutBytes(&repeated, EncodeDoc(d))
	}
	PutBytes(&repeated, wideDoc(3, "f0", 1))
	return [][]byte{good, good[:len(good)/2], append(slices.Clone(good), 0), lied, bad.Bytes(), {0}, {}, {0xff}, repeated.Bytes()}
}

// FuzzDocListWindowMatchesReference: for any bytes and any window [from,
// to) of the list they say they hold, AppendWindow fails exactly when the
// reference, reading the whole list, fails, and otherwise appends the
// reference's documents [from:to] and nothing else.
func FuzzDocListWindowMatchesReference(f *testing.F) {
	for _, seed := range docListSeeds() {
		f.Add(seed, uint16(0), uint16(math.MaxUint16))
		f.Add(seed, uint16(1), uint16(3))
		f.Add(seed, uint16(4), uint16(4))
	}
	f.Fuzz(func(t *testing.T, data []byte, a, b uint16) {
		want, wantErr := refDecodeDocList(data)
		list, err := ReadDocList(data)
		if err != nil {
			if wantErr == nil {
				t.Fatalf("list count refused (%v), reference read %d documents", err, len(want))
			}
			return
		}
		n := list.Len()
		from, to := int(a)%(n+1), int(b)%(n+1)
		if from > to {
			from, to = to, from
		}
		head := NewDoc(F("already", Str("there")))
		got, err := list.AppendWindow([]*Doc{head}, from, to)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("window [%d, %d) of %d: %v, reference %v", from, to, n, err, wantErr)
		}
		if err != nil {
			if dterr.CodeOf(err) != dterr.CodeInternal {
				t.Fatalf("window [%d, %d) of %d: %v, want an internal error", from, to, n, err)
			}
			return
		}
		if got[0] != head || !sameEncodings(got[1:], want[from:to]) {
			t.Fatalf("window [%d, %d) of %d: %v, reference %v", from, to, n, got, want[from:to])
		}
	})
}

// TestDocListSeedsFailAsNamed: of the seeds, the whole list and the empty
// one read; every other is refused by the reference, the window fuzz's
// premise that a window of it must fail too.
func TestDocListSeedsFailAsNamed(t *testing.T) {
	for i, seed := range docListSeeds() {
		_, err := refDecodeDocList(seed)
		if wantOK := i == 0 || i == 5; (err == nil) != wantOK {
			t.Errorf("seed %d: %v", i, err)
		}
	}
}
