// Package btree implements an in-memory B-tree that maps each distinct
// string key to one value, in key order. It is the ordered-index substrate
// for the document store's B-tree indexes, whose value per key is the key's
// posting list: a prefix scan visits keys in order, a lookup finds a key's
// value in place, and an insert splits full nodes on its way down so the
// tree stays within B-tree height bounds. Keys are never removed: the store
// only appends.
package btree

import (
	"slices"
	"strings"
)

// Map is a B-tree from string keys to values of type V. The zero value is
// not usable; call New. An empty map is an empty root.
type Map[V any] struct {
	root     *node[V]
	maxItems int
}

type item[V any] struct {
	key string
	val V
}

type node[V any] struct {
	items    []item[V]
	children []*node[V]
}

// New returns an empty map whose nodes hold at most 2*degree-1 keys; a
// degree below 2 counts as 2.
func New[V any](degree int) *Map[V] {
	return &Map[V]{root: &node[V]{}, maxItems: 2*max(degree, 2) - 1}
}

// Upsert returns key's value, first adding key with the zero value when the
// map does not hold it. The pointer is valid until the next Upsert.
func (m *Map[V]) Upsert(key string) *V {
	if len(m.root.items) >= m.maxItems {
		mid, second := m.root.split(m.maxItems / 2)
		m.root = &node[V]{items: []item[V]{mid}, children: []*node[V]{m.root, second}}
	}
	return m.root.upsert(key, m.maxItems)
}

// Get returns key's value, the zero value when the map does not hold key.
func (m *Map[V]) Get(key string) (v V) {
	for n := m.root; ; {
		i, found := find(n.items, key)
		switch {
		case found:
			return n.items[i].val
		case len(n.children) == 0:
			return v
		}
		n = n.children[i]
	}
}

// split divides n at index i, returning the promoted item and the new right
// sibling.
func (n *node[V]) split(i int) (item[V], *node[V]) {
	mid := n.items[i]
	right := &node[V]{items: append([]item[V](nil), n.items[i+1:]...)}
	n.items = n.items[:i]
	if len(n.children) > 0 {
		right.children = append(right.children, n.children[i+1:]...)
		n.children = n.children[:i+1]
	}
	return mid, right
}

// find locates key in items, returning its index and whether it was found;
// the index is the child to descend into when not found.
func find[V any](items []item[V], key string) (int, bool) {
	lo, hi := 0, len(items)
	for lo < hi {
		mid := (lo + hi) / 2
		if items[mid].key < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(items) && items[lo].key == key
}

// upsert finds or adds key below n, which has room for one more item.
func (n *node[V]) upsert(key string, maxItems int) *V {
	i, found := find(n.items, key)
	if found {
		return &n.items[i].val
	}
	if len(n.children) == 0 {
		n.items = slices.Insert(n.items, i, item[V]{key: key})
		return &n.items[i].val
	}
	if len(n.children[i].items) >= maxItems {
		mid, right := n.children[i].split(maxItems / 2)
		n.items = slices.Insert(n.items, i, mid)
		n.children = slices.Insert(n.children, i+1, right)
		switch {
		case mid.key == key:
			return &n.items[i].val
		case mid.key < key:
			i++
		}
	}
	return n.children[i].upsert(key, maxItems)
}

// AscendPrefix visits the keys that begin with prefix and their values, in
// key order, until fn returns false.
func (m *Map[V]) AscendPrefix(prefix string, fn func(key string, v *V) bool) {
	m.root.ascend(prefix, func(key string, v *V) bool {
		return strings.HasPrefix(key, prefix) && fn(key, v)
	})
}

// ascend visits the keys from ge on and their values, in key order, until
// fn returns false, and reports whether fn never did.
func (n *node[V]) ascend(ge string, fn func(string, *V) bool) bool {
	start, _ := find(n.items, ge)
	for i := start; i < len(n.items); i++ {
		if len(n.children) > 0 && !n.children[i].ascend(ge, fn) {
			return false
		}
		if !fn(n.items[i].key, &n.items[i].val) {
			return false
		}
	}
	return len(n.children) == 0 || n.children[len(n.children)-1].ascend(ge, fn)
}
