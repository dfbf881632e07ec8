package store

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/btree"
	"repro/internal/record"
)

// IndexKind selects the physical structure backing a secondary index.
type IndexKind int

// Supported index kinds. Hash indexes serve point lookups; B-tree indexes
// additionally serve range and prefix scans.
const (
	HashIndex IndexKind = iota
	BTreeIndex
)

// String returns the kind name.
func (k IndexKind) String() string {
	switch k {
	case HashIndex:
		return "hash"
	case BTreeIndex:
		return "btree"
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
// index keeps per key — hash, B-tree and text alike.
type postings struct{ list []int64 }

// add appends id unless it already ends the list, reporting whether it was
// new. An index is only ever given an id at least as high as every id it
// holds — inserts, a backfill, a snapshot load and a replay all go in
// ascending id order — so the id is either the last one (a list repeating
// an element) or above it.
func (p *postings) add(id int64) bool {
	if n := len(p.list); n > 0 && p.list[n-1] == id {
		return false
	}
	p.list = append(p.list, id)
	return true
}

// ids returns the ascending ids. It is the list itself: valid only under
// the collection lock, and not to be modified.
func (p postings) ids() []int64 { return p.list }

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
		out = append(out, Group{key, int64(len(p.ids()))})
	}
	return out
}

// treeKeys is a B-tree index's keys, in order.
type treeKeys struct{ *btree.Map[postings] }

func (t treeKeys) add(key string, id int64) bool { return t.Upsert(key).add(id) }

func (t treeKeys) get(key string) postings { return t.Get(key) }

func (t treeKeys) groups() (out []Group) {
	t.AscendPrefix("", func(key string, p *postings) bool {
		out = append(out, Group{key, int64(len(p.ids()))})
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

// insert adds the entries document d contributes under id: one for a
// scalar path, one per distinct scalar element for a list path.
func (ix *Index) insert(id int64, d *Doc) {
	v, ok := d.Path(ix.Path)
	if !ok {
		return
	}
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

// exact reports whether the ids under the keys cond asks for are exactly
// the documents cond matches, so that none needs checking: the index holds
// only strings and cond asks only for strings. Otherwise a key may also list
// values that render like a value asked for without equalling it, the
// number 27 under the string "27".
func (ix *Index) exact(cond Cond) bool {
	asked := cond.Set
	if cond.Op != OpIn {
		asked = []record.Value{cond.Value}
	}
	return ix.otherEntries == 0 && !slices.ContainsFunc(asked, func(v record.Value) bool { return v.Kind() != record.KindString })
}

// idsIn returns the ascending ids of documents whose indexed value renders
// as any of the set's, each once.
func (ix *Index) idsIn(set []record.Value) []int64 {
	if len(set) == 1 {
		return ix.keys.get(set[0].Str()).ids()
	}
	var all []int64
	for _, v := range set {
		all = append(all, ix.keys.get(v.Str()).ids()...)
	}
	slices.Sort(all)
	return slices.Compact(all)
}

// groups counts the documents by key off the posting-list lengths, each key
// in the place of its first id — where a scan grouping by the path meets it
// first. Only an index without list entries counts documents this way.
func (ix *Index) groups() []Group {
	out := ix.keys.groups()
	first := func(g Group) int64 { return ix.keys.get(g.Key).ids()[0] }
	slices.SortFunc(out, func(a, b Group) int { return cmp.Compare(first(a), first(b)) })
	return out
}

// SizeBytes estimates the index footprint: key bytes plus per-entry
// structural overhead, matching how totalIndexSize is reported in stats.
func (ix *Index) SizeBytes() int64 {
	return ix.keyBytes + ix.entries*perEntry
}
