package store

import (
	"fmt"
	"slices"
	"strings"
	"sync"
)

// DefaultExtentSize mirrors the 2 GB extents of the paper's deployment.
// Scaled-down runs configure smaller extents so the extent arithmetic in
// stats() keeps the same shape.
const DefaultExtentSize int64 = 2 << 30

// Collection is a single namespace of documents with secondary indexes and
// extent-based storage accounting. It is safe for concurrent use. It is its
// documents in ascending id order — insertion order — and it only appends:
// a stored document is never replaced or removed, so a scan, the index and
// text postings, a snapshot and a replay share one order by construction
// (see the package comment).
type Collection struct {
	mu sync.RWMutex

	ns         string
	extentSize int64

	// ids and docs are the stored documents and their ids, position by
	// position, ids strictly ascending. nextID is above every id held.
	ids    []int64
	docs   []*Doc
	nextID int64
	// allocated is the storage taken from extents. Extents fill one after
	// another and space is never handed back, so it alone says how many
	// extents there are and how full the last one is. Every stored document
	// takes its size; an image from a build that could replace and delete
	// documents may carry more than those it holds.
	allocated int64
	// dataSize is the sum of SizeBytes over the stored documents, kept in
	// step by every insert so Stats need not visit them. Documents must not
	// be modified once stored.
	dataSize int64
	indexes  map[string]*Index
	// text holds inverted text indexes by path. They accelerate OpContains
	// filters but are not part of the secondary-index set reported in Stats
	// (nindexes keeps the paper's Table I/II shape).
	text map[string]*textIndex
	// paths resolves every indexed path of a document being added in one
	// walk over its bytes.
	paths indexPaths
}

// NewCollection creates an empty collection for namespace ns with the given
// extent size (0 selects DefaultExtentSize). Most callers go through DB or
// NewSharded; dtnode shard hosts build collections directly.
func NewCollection(ns string, extentSize int64) *Collection {
	if extentSize <= 0 {
		extentSize = DefaultExtentSize
	}
	return &Collection{
		ns:         ns,
		extentSize: extentSize,
		indexes:    make(map[string]*Index),
		text:       make(map[string]*textIndex),
		nextID:     1,
	}
}

// find returns the position of id in the collection and whether it is held
// there; for an absent id, the position it would take. Ids ascend strictly,
// so id can sit no higher than id-ids[0] and no lower than that less the
// ids missing between the first and the last: with none missing the
// position is known outright, else a binary search covers the gap. Must
// hold c.mu.
func (c *Collection) find(id int64) (int, bool) {
	n := len(c.ids)
	switch {
	case n == 0 || id < c.ids[0]:
		return 0, false
	case id > c.ids[n-1]:
		return n, false
	}
	missing := c.ids[n-1] - c.ids[0] - int64(n-1)
	lo, hi := max(id-c.ids[0]-missing, 0), min(id-c.ids[0], int64(n-1))
	i, ok := slices.BinarySearch(c.ids[lo:hi+1], id)
	return int(lo) + i, ok
}

// doc returns the document stored under id, which an index listed, so it
// is held. Must hold c.mu.
func (c *Collection) doc(id int64) *Doc {
	i, _ := c.find(id)
	return c.docs[i]
}

// NS returns the collection's namespace ("db.collection").
func (c *Collection) NS() string { return c.ns }

// Count reports the number of documents.
func (c *Collection) Count() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return int64(len(c.docs))
}

// Insert stores doc and returns its assigned id.
func (c *Collection) Insert(doc *Doc) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.insertLocked(doc)
}

// InsertMany stores docs in order under one lock acquisition and returns
// their ids.
func (c *Collection) InsertMany(docs []*Doc) []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]int64, len(docs))
	c.ids = slices.Grow(c.ids, len(docs))
	c.docs = slices.Grow(c.docs, len(docs))
	for i, d := range docs {
		ids[i] = c.insertLocked(d)
	}
	return ids
}

// insertLocked stores doc under the next id. Must hold c.mu.
func (c *Collection) insertLocked(doc *Doc) int64 {
	id := c.nextID
	c.nextID++
	c.addLocked(id, doc)
	return id
}

// addLocked stores doc under id, which is above every id held, and indexes
// it. Must hold c.mu.
func (c *Collection) addLocked(id int64, doc *Doc) {
	c.ids = append(c.ids, id)
	c.docs = append(c.docs, doc)
	size := doc.SizeBytes()
	c.dataSize += size
	c.allocated += size
	if len(c.indexes)+len(c.text) == 0 {
		return
	}
	if c.paths.indexes != len(c.indexes)+len(c.text) {
		c.paths.build(c)
	}
	c.paths.resolve(doc)
	for _, ix := range c.indexes {
		ix.insert(id, c.paths.vals[ix.slot])
	}
	for _, tx := range c.text {
		tx.insert(id, c.paths.vals[tx.slot])
	}
}

// indexPaths resolves every path a collection indexes in one walk over a
// document's bytes, going down into a nested document only where an
// indexed path does, so that a document added to a collection of eight
// indexes is read once, not eight times from its first byte. It is built
// for a set of indexes, each of which it gives the slot of its path, and
// its scratch is used under the collection's write lock.
type indexPaths struct {
	indexes int // how many indexes and text indexes it was built for
	root    []pathNode
	// vals is the value at each slot's path in the document last resolved,
	// null where it holds none: neither kind of index takes an entry for a
	// null.
	vals []DocValue
}

// pathNode is one segment of the indexed paths: a field name, the slot of
// the path ending at it (-1 when none does), and the segments below it.
type pathNode struct {
	name string
	slot int
	kids []pathNode
}

// build makes ip resolve the paths of c's indexes, setting each index's
// slot. Indexes are only ever added, so a count tells when to build again.
func (ip *indexPaths) build(c *Collection) {
	*ip = indexPaths{indexes: len(c.indexes) + len(c.text)}
	for _, ix := range c.indexes {
		ix.slot = ip.add(ix.Path)
	}
	for _, tx := range c.text {
		tx.slot = ip.add(tx.Path)
	}
}

// add adds a dotted path, split as Doc.Path splits it, and returns its
// slot.
func (ip *indexPaths) add(path string) int {
	nodes := &ip.root
	for {
		part, rest, nested := strings.Cut(path, ".")
		i := slices.IndexFunc(*nodes, func(n pathNode) bool { return n.name == part })
		if i < 0 {
			i = len(*nodes)
			*nodes = append(*nodes, pathNode{name: part, slot: -1})
		}
		n := &(*nodes)[i]
		if !nested {
			if n.slot < 0 {
				n.slot = len(ip.vals)
				ip.vals = append(ip.vals, DocValue{})
			}
			return n.slot
		}
		nodes, path = &n.kids, rest
	}
}

// resolve finds the value at every path in d, what Doc.Path finds.
func (ip *indexPaths) resolve(d *Doc) {
	clear(ip.vals)
	ip.walk(cursorOf(d.raw), ip.root)
}

// walk reads the fields c is at, a document's, against nodes.
func (ip *indexPaths) walk(c cursor, nodes []pathNode) {
	for name, _, ok := c.next(); ok; name, _, ok = c.next() {
		i := 0
		for i < len(nodes) && nodes[i].name != name {
			i++
		}
		if i == len(nodes) {
			c.skip()
			continue
		}
		n, v := &nodes[i], c.value()
		if n.slot >= 0 {
			ip.vals[n.slot] = v
		}
		if len(n.kids) > 0 && v.IsDoc() {
			ip.walk(cursorOf(v.scalar.Str()), n.kids)
		}
	}
}

// IndexSpec is one index of a collection's layout: the secondary index
// Name over Path of kind Kind, or, of kind TextIndex, the text index over
// Path, which has no name.
type IndexSpec struct {
	Name, Path string
	Kind       IndexKind
}

// EnsureIndex creates the index ix if the collection lacks it — a
// secondary index by its name, a text index by its path — backfilling
// existing documents. It reports whether it created one: false means the
// collection is unchanged. A text index accelerates case-insensitive
// substring (OpContains) filters on its path; queries it cannot prove
// equivalent to a scan fall back to scanning, so results never change.
func (c *Collection) EnsureIndex(ix IndexSpec) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.hasIndexLocked(ix) {
		return false
	}
	var insert func(id int64, v DocValue)
	if ix.Kind == TextIndex {
		tx := newTextIndex(ix.Path)
		c.text[ix.Path], insert = tx, tx.insert
	} else {
		x := newIndex(ix.Name, ix.Path, ix.Kind)
		c.indexes[ix.Name], insert = x, x.insert
	}
	for i, d := range c.docs {
		if v, ok := d.Path(ix.Path); ok {
			insert(c.ids[i], v)
		}
	}
	return true
}

// hasIndexLocked reports whether the collection holds an index under ix's
// key: its path for a text index, else its name. Must hold c.mu.
func (c *Collection) hasIndexLocked(ix IndexSpec) bool {
	if ix.Kind == TextIndex {
		return c.text[ix.Path] != nil
	}
	return c.indexes[ix.Name] != nil
}

// MissingIndexes returns the indexes of layout that EnsureIndex would
// create.
func (c *Collection) MissingIndexes(layout []IndexSpec) []IndexSpec {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return slices.DeleteFunc(slices.Clone(layout), c.hasIndexLocked)
}

// LastID returns the highest id held, 0 when the collection is empty.
func (c *Collection) LastID() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if n := len(c.ids); n > 0 {
		return c.ids[n-1]
	}
	return 0
}

// Stats returns the storage statistics of the collection in the shape of the
// paper's Tables I and II.
func (c *Collection) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var indexSize int64
	for _, ix := range c.indexes {
		indexSize += ix.SizeBytes()
	}
	extents, last := c.allocated/c.extentSize, c.allocated%c.extentSize
	if last > 0 {
		extents++
	} else if extents > 0 {
		last = c.extentSize // the last extent is exactly full
	}
	avg := int64(0)
	if len(c.docs) > 0 {
		avg = c.dataSize / int64(len(c.docs))
	}
	return Stats{
		NS:             c.ns,
		Count:          int64(len(c.docs)),
		NumExtents:     int(extents),
		NIndexes:       len(c.indexes),
		LastExtentSize: last,
		TotalIndexSize: indexSize,
		DataSize:       c.dataSize,
		AvgObjSize:     avg,
	}
}

// String identifies the collection.
func (c *Collection) String() string {
	return fmt.Sprintf("collection(%s, count=%d)", c.ns, c.Count())
}
