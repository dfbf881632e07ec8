// Package btree implements an in-memory B-tree keyed by strings with int64
// payloads. It is the ordered-index substrate for the document store's
// secondary indexes: duplicate keys are allowed (entries order by key, then
// id), range scans iterate in key order, and an insert splits full nodes on
// its way down so the tree stays within B-tree height bounds. Entries are
// never removed: the store only appends.
package btree

import "strings"

// DefaultDegree is the branching degree used by New.
const DefaultDegree = 32

// Entry is a single (key, id) pair stored in the tree.
type Entry struct {
	Key string
	ID  int64
}

func less(a, b Entry) bool {
	if c := strings.Compare(a.Key, b.Key); c != 0 {
		return c < 0
	}
	return a.ID < b.ID
}

// Tree is a B-tree of Entries. The zero value is not usable; call New or
// NewDegree.
type Tree struct {
	root   *node
	degree int
	length int
}

type node struct {
	items    []Entry
	children []*node
}

// New returns an empty tree with the default degree.
func New() *Tree { return NewDegree(DefaultDegree) }

// NewDegree returns an empty tree whose nodes hold at most 2*degree-1
// entries. Degree must be at least 2.
func NewDegree(degree int) *Tree {
	if degree < 2 {
		degree = 2
	}
	return &Tree{degree: degree}
}

// Len reports the number of entries in the tree.
func (t *Tree) Len() int { return t.length }

func (t *Tree) maxItems() int { return 2*t.degree - 1 }

// Insert adds entry e. Duplicate (key, id) pairs are stored once; inserting
// an existing pair is a no-op and returns false.
func (t *Tree) Insert(key string, id int64) bool {
	e := Entry{Key: key, ID: id}
	if t.root == nil {
		t.root = &node{items: []Entry{e}}
		t.length = 1
		return true
	}
	if len(t.root.items) >= t.maxItems() {
		mid, second := t.root.split(t.maxItems() / 2)
		oldRoot := t.root
		t.root = &node{
			items:    []Entry{mid},
			children: []*node{oldRoot, second},
		}
	}
	if t.root.insert(e, t.maxItems()) {
		t.length++
		return true
	}
	return false
}

// split divides n at index i, returning the promoted entry and the new right
// sibling.
func (n *node) split(i int) (Entry, *node) {
	mid := n.items[i]
	right := &node{}
	right.items = append(right.items, n.items[i+1:]...)
	n.items = n.items[:i]
	if len(n.children) > 0 {
		right.children = append(right.children, n.children[i+1:]...)
		n.children = n.children[:i+1]
	}
	return mid, right
}

// find locates e in items, returning its index and whether it was found; the
// index is the child to descend into when not found.
func find(items []Entry, e Entry) (int, bool) {
	lo, hi := 0, len(items)
	for lo < hi {
		mid := (lo + hi) / 2
		if less(items[mid], e) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(items) && !less(e, items[lo]) {
		return lo, true
	}
	return lo, false
}

func (n *node) insert(e Entry, maxItems int) bool {
	i, found := find(n.items, e)
	if found {
		return false
	}
	if len(n.children) == 0 {
		n.items = append(n.items, Entry{})
		copy(n.items[i+1:], n.items[i:])
		n.items[i] = e
		return true
	}
	if len(n.children[i].items) >= maxItems {
		mid, right := n.children[i].split(maxItems / 2)
		n.items = append(n.items, Entry{})
		copy(n.items[i+1:], n.items[i:])
		n.items[i] = mid
		n.children = append(n.children, nil)
		copy(n.children[i+2:], n.children[i+1:])
		n.children[i+1] = right
		switch {
		case less(mid, e):
			i++
		case !less(e, mid):
			return false // e == promoted entry
		}
	}
	return n.children[i].insert(e, maxItems)
}

// AscendRange visits entries with ge <= key < lt in order until fn returns
// false. An empty lt means no upper bound.
func (t *Tree) AscendRange(ge, lt string, fn func(Entry) bool) {
	t.root.ascendRange(ge, lt, fn)
}

func (n *node) ascendRange(ge, lt string, fn func(Entry) bool) bool {
	if n == nil {
		return true
	}
	start, _ := find(n.items, Entry{Key: ge, ID: -1 << 62})
	for i := start; i < len(n.items); i++ {
		if len(n.children) > 0 && !n.children[i].ascendRange(ge, lt, fn) {
			return false
		}
		item := n.items[i]
		if item.Key >= ge {
			if lt != "" && item.Key >= lt {
				return false
			}
			if !fn(item) {
				return false
			}
		}
	}
	if len(n.children) > 0 {
		return n.children[len(n.children)-1].ascendRange(ge, lt, fn)
	}
	return true
}

// Lookup returns all ids stored under key, in ascending id order.
func (t *Tree) Lookup(key string) []int64 {
	var ids []int64
	t.AscendRange(key, "", func(e Entry) bool {
		if e.Key != key {
			return false
		}
		ids = append(ids, e.ID)
		return true
	})
	return ids
}

// AscendPrefix visits entries whose key begins with prefix, in order.
func (t *Tree) AscendPrefix(prefix string, fn func(Entry) bool) {
	t.root.ascendRange(prefix, "", func(e Entry) bool {
		if !strings.HasPrefix(e.Key, prefix) {
			return false
		}
		return fn(e)
	})
}

// Height reports the height of the tree (0 when empty).
//
//lint:dtlint-allow deadcheck TestMinMaxHeight: invariant
func (t *Tree) Height() int {
	h := 0
	for n := t.root; n != nil; {
		h++
		if len(n.children) == 0 {
			break
		}
		n = n.children[0]
	}
	return h
}
