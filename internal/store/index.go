package store

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"unsafe"

	"repro/internal/btree"
	"repro/internal/record"
)

// IndexKind selects the physical structure backing an index.
type IndexKind int

// Supported index kinds. Hash indexes serve point lookups; B-tree indexes
// additionally serve range and prefix scans. A text index is the inverted
// index over a text path that serves case-insensitive substring
// (OpContains) filters; it is keyed by its path, carries no name, and is
// not one of the secondary indexes Stats counts.
const (
	HashIndex IndexKind = iota
	BTreeIndex
	TextIndex
)

// String returns the kind name.
func (k IndexKind) String() string {
	switch k {
	case HashIndex:
		return "hash"
	case BTreeIndex:
		return "btree"
	case TextIndex:
		return "text"
	default:
		return fmt.Sprintf("indexkind(%d)", int(k))
	}
}

// Index is a secondary index over a dotted document path. Keys are the
// string renderings of scalar values at that path; documents whose path is
// absent or non-scalar are not indexed (list elements are indexed
// individually, a repeated element once). Every key holds one posting list
// of the ids under it, ascending — the order a scan meets them — so an
// index-served result lists documents in the order a scan would. A hash
// index keeps its keys in a Go map; a B-tree index keeps them in key order,
// which serves prefix scans.
type Index struct {
	Name string
	Path string
	Kind IndexKind

	keys keyMap
	// slot is the place of the index's path in its collection's
	// indexPaths.
	slot int

	entries  int64
	keyBytes int64
	// listEntries counts the entries that came from list elements. While it
	// is zero every entry is one document's scalar value, which is what
	// lets an unfiltered group count read its counts off the posting lists.
	listEntries int64
	// otherEntries counts the values indexed that are not strings. A key is
	// a rendering, and a string equals only the string it renders as, so
	// while this is zero a string asked for matches exactly the ids under
	// its key; otherwise a candidate must be checked (see Index.exact).
	otherEntries int64
}

// perEntry is the bookkeeping overhead charged per entry in size estimates.
const perEntry = 24

func newIndex(name, path string, kind IndexKind) *Index {
	ix := &Index{Name: name, Path: path, Kind: kind}
	if kind == BTreeIndex {
		ix.keys = treeKeys{btree.New[postings](32)} // up to 63 keys a node
	} else {
		ix.keys = hashKeys{}
	}
	return ix
}

// postings is one key's ids: ascending, each held once. It is what every
// index keeps per key — hash, B-tree and text alike — so it is kept small:
// 24 bytes, the size of the []int64 it replaced. The ids are varint-coded:
// the encoding holds the first as a uvarint and each next one as the
// uvarint of its gap from the one before, a byte an id where ids lie close
// together. last holds the highest id inline, so add decodes nothing. A key
// of one id holds it in last alone, with no bytes: the encoding is written
// when a second id comes. Ids are positive, so the zero postings is empty.
//
// The encoding is a byte slice kept as its array, length and capacity in
// 32 bits each (see bytes), so that the id beside it fits in the 24 bytes
// of a slice header.
type postings struct {
	data *byte // the encoding's array: n bytes in use of c
	last int64
	n, c uint32
}

// bytes returns the encoding.
func (p postings) bytes() []byte {
	if p.data == nil {
		return nil
	}
	return unsafe.Slice(p.data, p.c)[:p.n]
}

// setBytes makes enc the encoding, keeping its spare capacity for the next
// add.
func (p *postings) setBytes(enc []byte) {
	if cap(enc) > math.MaxUint32 {
		panic("store: a posting list of 4 GiB")
	}
	p.data, p.n, p.c = unsafe.SliceData(enc), uint32(len(enc)), uint32(cap(enc))
}

// add appends id unless it already ends the list, reporting whether it was
// new. An index is only ever given an id at least as high as every id it
// holds — inserts, a backfill, a snapshot load and a replay all go in
// ascending id order — so the id is either the last one (a list repeating
// an element) or above it.
func (p *postings) add(id int64) bool {
	switch {
	case p.last == id:
		return false
	case p.last != 0:
		enc := p.bytes()
		if len(enc) == 0 {
			enc = binary.AppendUvarint(enc, uint64(p.last))
		}
		p.setBytes(binary.AppendUvarint(enc, uint64(id-p.last)))
	}
	p.last = id
	return true
}

// empty reports whether the list holds no id.
func (p postings) empty() bool { return p.last == 0 }

// len returns how many ids the list holds: one, or one per uvarint of the
// encoding, each of which ends in the one byte of it below 0x80.
func (p postings) len() int {
	enc := p.bytes()
	if len(enc) == 0 {
		return int(min(p.last, 1))
	}
	n := 0
	for ; len(enc) >= 8; enc = enc[8:] {
		n += bits.OnesCount64(^binary.LittleEndian.Uint64(enc) & 0x8080808080808080)
	}
	for _, b := range enc {
		n += int(^b >> 7)
	}
	return n
}

// first returns the lowest id of a list that is not empty.
func (p postings) first() int64 {
	if p.n == 0 {
		return p.last
	}
	id, _ := binary.Uvarint(p.bytes())
	return int64(id)
}

// iter returns an iterator over the ids, ascending.
func (p postings) iter() postingsIter {
	if p.n == 0 {
		return postingsIter{only: p.last}
	}
	return postingsIter{enc: p.bytes()}
}

// appendTo appends the ids to dst, ascending.
func (p postings) appendTo(dst []int64) []int64 {
	it := p.iter()
	for id, ok := it.next(); ok; id, ok = it.next() {
		dst = append(dst, id)
	}
	return dst
}

// postingsIter reads a posting list's ids in ascending order, decoding one
// at a time.
type postingsIter struct {
	enc  []byte // the encoding not yet read
	id   int64  // the id read last, 0 before the first
	only int64  // a one-id list's id until it is read
}

// next returns the next id; ok is false after the last.
func (it *postingsIter) next() (id int64, ok bool) {
	if len(it.enc) == 0 {
		id, it.only = it.only, 0
		return id, id != 0
	}
	if b := it.enc[0]; b < 0x80 {
		it.enc = it.enc[1:]
		it.id += int64(b)
		return it.id, true
	}
	gap, n := binary.Uvarint(it.enc)
	it.enc = it.enc[n:]
	it.id += int64(gap)
	return it.id, true
}

// skip passes over the next n ids, or all that are left.
func (it *postingsIter) skip(n int) {
	for ; n > 0; n-- {
		if _, ok := it.next(); !ok {
			return
		}
	}
}

// keyMap holds an index's postings by key. add adds id under key and
// reports whether the key's postings changed; get returns key's postings,
// empty when it has none; groups returns each key with the length of its
// postings, in no particular order.
type keyMap interface {
	add(key string, id int64) bool
	get(key string) postings
	groups() []Group
}

// hashKeys is a hash index's keys.
type hashKeys map[string]postings

func (h hashKeys) add(key string, id int64) bool {
	p := h[key]
	added := p.add(id)
	h[key] = p
	return added
}

func (h hashKeys) get(key string) postings { return h[key] }

func (h hashKeys) groups() []Group {
	out := make([]Group, 0, len(h))
	for key, p := range h {
		out = append(out, Group{key, int64(p.len())})
	}
	return out
}

// treeKeys is a B-tree index's keys, in order.
type treeKeys struct{ *btree.Map[postings] }

func (t treeKeys) add(key string, id int64) bool { return t.Upsert(key).add(id) }

func (t treeKeys) get(key string) postings { return t.Get(key) }

func (t treeKeys) groups() (out []Group) {
	t.AscendPrefix("", func(key string, p *postings) bool {
		out = append(out, Group{key, int64(p.len())})
		return true
	})
	return out
}

// indexKey is the key a value is indexed under, if it is indexable.
func indexKey(v DocValue) (string, bool) {
	if !v.IsScalar() || v.Scalar().IsNull() {
		return "", false
	}
	return v.Scalar().Str(), true
}

// insert adds the entries of v, the value a document holds at the index's
// path, under the document's id: one for a scalar, one per distinct scalar
// element for a list.
func (ix *Index) insert(id int64, v DocValue) {
	if !v.IsList() {
		ix.insertValue(id, v)
		return
	}
	it := v.Elems()
	for e, ok := it.Next(); ok; e, ok = it.Next() {
		if ix.insertValue(id, e) {
			ix.listEntries++
		}
	}
}

// insertValue adds the entry of one indexable value under id, reporting
// whether the index changed.
func (ix *Index) insertValue(id int64, v DocValue) bool {
	key, ok := indexKey(v)
	if !ok || !ix.keys.add(key, id) {
		return false
	}
	ix.entries++
	ix.keyBytes += int64(len(key))
	if v.Scalar().Kind() != record.KindString {
		ix.otherEntries++
	}
	return true
}

// asked returns the values cond, an Eq or In, asks for.
func asked(cond Cond) []record.Value {
	if cond.Op == OpIn {
		return cond.Set
	}
	return []record.Value{cond.Value}
}

// exact reports whether the ids under the keys cond asks for are exactly
// the documents cond matches, so that none needs checking: the index holds
// only strings and cond asks only for strings. Otherwise a key may also list
// values that render like a value asked for without equalling it, the
// number 27 under the string "27".
func (ix *Index) exact(cond Cond) bool {
	return ix.otherEntries == 0 && !slices.ContainsFunc(asked(cond), func(v record.Value) bool { return v.Kind() != record.KindString })
}

// byNumber reports whether the index must look v up as a number: v is one,
// and the index holds values other than strings, so it may hold numbers
// that record.Compare equates with v but that render otherwise — the
// float 1e+06 and the integer 1000000.
func (ix *Index) byNumber(v record.Value) bool {
	return ix.otherEntries > 0 && (v.Kind() == record.KindInt || v.Kind() == record.KindFloat)
}

// serves reports whether the index can list the keys of every value cond,
// an Eq or In, matches (see keysFor). While it holds values other than
// strings it cannot for a number numberKeys cannot list, or a time, which
// equals the same instant in another zone, rendered otherwise: a scan
// answers cond then.
func (ix *Index) serves(cond Cond) bool {
	return ix.otherEntries == 0 || !slices.ContainsFunc(asked(cond), func(v record.Value) bool {
		if !ix.byNumber(v) {
			return v.Kind() == record.KindTime
		}
		f, _ := v.AsFloat()
		return !listable(f)
	})
}

// keysFor appends to keys the keys holding every document cond, an Eq or In
// the index serves, matches: each value's rendering, or for a value looked
// up by number, the renderings of every number equal to it.
func (ix *Index) keysFor(cond Cond, keys []string) []string {
	for _, v := range asked(cond) {
		if !ix.byNumber(v) {
			keys = addKey(keys, v.Str())
			continue
		}
		f, _ := v.AsFloat()
		keys = numberKeys(keys, f)
	}
	return keys
}

// listable reports whether numberKeys can list the numbers equal to f: not
// when f is NaN, which record.Compare equates with every number, nor when
// it is an integer from 2^53 to 2^63 in size, which integers of many
// renderings round to.
func listable(f float64) bool {
	big := math.Abs(f)
	return !math.IsNaN(f) && (big < 1<<53 || big > 1<<63 || f != math.Trunc(f))
}

// numberKeys appends to keys the keys of the numbers record.Compare equates
// with f, which must be listable: f's float rendering, 0's other sign, the
// integer f is if it is one, and NaN, which equals every number.
func numberKeys(keys []string, f float64) []string {
	keys = addKey(keys, record.Float(f).Str())
	keys = addKey(keys, "NaN")
	if f == 0 {
		keys = addKey(keys, "-0")
	}
	if f == math.Trunc(f) && math.Abs(f) < 1<<53 {
		keys = addKey(keys, record.Int(int64(f)).Str())
	}
	return keys
}

// addKey appends key to keys unless they hold it.
func addKey(keys []string, key string) []string {
	if slices.Contains(keys, key) {
		return keys
	}
	return append(keys, key)
}

// idsIn returns the ascending ids, each once, listed under the keys of
// cond, an Eq or In the index serves (see keysFor): the one list that holds
// any, as it is stored, or their union, written into sc.
func (ix *Index) idsIn(cond Cond, sc *scratch) postings {
	sc.keys = ix.keysFor(cond, sc.keys[:0])
	sc.reset()
	for _, key := range sc.keys {
		sc.gather(ix.keys.get(key))
	}
	return sc.union()
}

// groups counts the documents by key off the posting-list lengths, each key
// in the place of its first id — where a scan grouping by the path meets it
// first. Only an index without list entries counts documents this way.
func (ix *Index) groups() []Group {
	out := ix.keys.groups()
	first := func(g Group) int64 { return ix.keys.get(g.Key).first() }
	slices.SortFunc(out, func(a, b Group) int { return cmp.Compare(first(a), first(b)) })
	return out
}

// SizeBytes estimates the index footprint: key bytes plus per-entry
// structural overhead, matching how totalIndexSize is reported in stats.
func (ix *Index) SizeBytes() int64 {
	return ix.keyBytes + ix.entries*perEntry
}
