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
// individually, a repeated element once). A hash index keeps each key's ids
// in ascending order, the order a B-tree yields them in too, so an
// index-served result lists documents in the order a scan would.
type Index struct {
	Name string
	Path string
	Kind IndexKind

	hash map[string][]int64
	tree *btree.Tree

	entries  int64
	keyBytes int64
	// listEntries counts the entries that came from list elements. While it
	// is zero every entry is one document's scalar value, which is what
	// lets an unfiltered group count read its counts off the posting lists.
	listEntries int64
}

// perEntry is the bookkeeping overhead charged per entry in size estimates.
const perEntry = 24

func newIndex(name, path string, kind IndexKind) *Index {
	idx := &Index{Name: name, Path: path, Kind: kind}
	switch kind {
	case HashIndex:
		idx.hash = make(map[string][]int64)
	case BTreeIndex:
		idx.tree = btree.New()
	}
	return idx
}

// indexKey is the key a value is indexed under, if it is indexable.
func indexKey(v DocValue) (string, bool) {
	if !v.IsScalar() || v.Scalar().IsNull() {
		return "", false
	}
	return v.Scalar().Str(), true
}

// appendID adds id to the ascending, duplicate-free ids unless it already
// ends them, reporting whether it was new. An index is only ever given an
// id at least as high as every id it holds — inserts, a backfill, a
// snapshot load and a replay all go in ascending id order — so the id is
// either the last one (a list repeating an element) or above it.
func appendID(ids []int64, id int64) ([]int64, bool) {
	if n := len(ids); n > 0 && ids[n-1] == id {
		return ids, false
	}
	return append(ids, id), true
}

// insert adds the entries document d contributes under id: one for a
// scalar path, one per distinct scalar element for a list path.
func (ix *Index) insert(id int64, d *Doc) {
	v, ok := d.Path(ix.Path)
	if !ok {
		return
	}
	if !v.IsList() {
		if key, ok := indexKey(v); ok {
			ix.insertKey(key, id)
		}
		return
	}
	it := v.Elems()
	for e, ok := it.Next(); ok; e, ok = it.Next() {
		if key, ok := indexKey(e); ok && ix.insertKey(key, id) {
			ix.listEntries++
		}
	}
}

// insertKey adds the single entry (key, id), reporting whether the index
// changed.
func (ix *Index) insertKey(key string, id int64) bool {
	var added bool
	if ix.Kind == BTreeIndex {
		added = ix.tree.Insert(key, id)
	} else {
		ix.hash[key], added = appendID(ix.hash[key], id)
	}
	if added {
		ix.entries++
		ix.keyBytes += int64(len(key))
	}
	return added
}

// ids returns the ascending ids of documents whose indexed value equals
// key. For a hash index it is the posting list itself: valid only under the
// collection lock, and not to be modified.
func (ix *Index) ids(key string) []int64 {
	if ix.Kind == HashIndex {
		return ix.hash[key]
	}
	return ix.tree.Lookup(key)
}

// idsIn returns the ascending ids of documents whose indexed value equals
// any of the set's, each once.
func (ix *Index) idsIn(set []record.Value) []int64 {
	if len(set) == 1 {
		return ix.ids(set[0].Str())
	}
	var all []int64
	for _, v := range set {
		all = append(all, ix.ids(v.Str())...)
	}
	slices.Sort(all)
	return slices.Compact(all)
}

// groups counts the documents by key off a hash index's posting-list
// lengths, each key in the place of its first id — where a scan grouping by
// the path meets it first. Only an index without list entries counts
// documents this way.
func (ix *Index) groups() []Group {
	out := make([]Group, 0, len(ix.hash))
	for key, ids := range ix.hash {
		out = append(out, Group{Key: key, Count: int64(len(ids))})
	}
	slices.SortFunc(out, func(a, b Group) int { return cmp.Compare(ix.hash[a.Key][0], ix.hash[b.Key][0]) })
	return out
}

// SizeBytes estimates the index footprint: key bytes plus per-entry
// structural overhead, matching how totalIndexSize is reported in stats.
func (ix *Index) SizeBytes() int64 {
	return ix.keyBytes + ix.entries*perEntry
}
