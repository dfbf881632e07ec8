package store

import (
	"fmt"
	"sort"
	"sync"
)

// DefaultExtentSize mirrors the 2 GB extents of the paper's deployment.
// Scaled-down runs configure smaller extents so the extent arithmetic in
// stats() keeps the same shape.
const DefaultExtentSize int64 = 2 << 30

// Collection is a single namespace of documents with secondary indexes and
// extent-based storage accounting. It is safe for concurrent use.
type Collection struct {
	mu sync.RWMutex

	ns         string
	extentSize int64

	docs map[int64]*Doc
	// order holds ids in insertion order for full scans. Deletes tombstone
	// the slot (id 0) instead of splicing, so Delete is O(1); pos maps each
	// live id to its slot and dead counts tombstones until compaction.
	order  []int64
	pos    map[int64]int
	dead   int
	nextID int64
	// allocated is the storage taken from extents. Extents fill one after
	// another and space is never handed back, so it alone says how many
	// extents there are and how full the last one is.
	allocated int64
	// dataSize is the sum of SizeBytes over the stored documents, kept in
	// step by every mutation so Stats need not visit them. Documents must
	// not be modified once stored.
	dataSize int64
	indexes  map[string]*Index
	// text holds inverted text indexes by path. They accelerate OpContains
	// filters but are not part of the secondary-index set reported in Stats
	// (nindexes keeps the paper's Table I/II shape).
	text map[string]*TextIndex
}

// NewCollection creates an empty collection for namespace ns with the given
// extent size (0 selects DefaultExtentSize). Most callers go through DB or
// NewSharded; dtnode shard hosts build collections directly.
func NewCollection(ns string, extentSize int64) *Collection {
	return newCollection(ns, extentSize)
}

func newCollection(ns string, extentSize int64) *Collection {
	if extentSize <= 0 {
		extentSize = DefaultExtentSize
	}
	return &Collection{
		ns:         ns,
		extentSize: extentSize,
		docs:       make(map[int64]*Doc),
		pos:        make(map[int64]int),
		indexes:    make(map[string]*Index),
		text:       make(map[string]*TextIndex),
		nextID:     1,
	}
}

// appendOrderLocked records id at the end of the insertion order. Must hold
// c.mu.
func (c *Collection) appendOrderLocked(id int64) {
	c.pos[id] = len(c.order)
	c.order = append(c.order, id)
}

// removeOrderLocked tombstones id's insertion-order slot in O(1), compacting
// the order slice once tombstones outnumber live entries. Must hold c.mu.
func (c *Collection) removeOrderLocked(id int64) {
	i, ok := c.pos[id]
	if !ok {
		return
	}
	c.order[i] = 0
	delete(c.pos, id)
	c.dead++
	if c.dead > 64 && c.dead > len(c.order)/2 {
		live := c.order[:0]
		for _, got := range c.order {
			if got != 0 {
				c.pos[got] = len(live)
				live = append(live, got)
			}
		}
		c.order = live
		c.dead = 0
	}
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

// addLocked stores doc under id, which holds no document, and indexes it.
// Must hold c.mu.
func (c *Collection) addLocked(id int64, doc *Doc) {
	c.docs[id] = doc
	c.appendOrderLocked(id)
	c.charge(doc.SizeBytes())
	for _, ix := range c.indexes {
		ix.insert(id, doc)
	}
	for _, tx := range c.text {
		tx.insert(id, doc)
	}
}

// replaceLocked stores doc under id in place of old, reindexing it. Must
// hold c.mu.
func (c *Collection) replaceLocked(id int64, old, doc *Doc) {
	for _, ix := range c.indexes {
		ix.remove(id, old)
	}
	for _, tx := range c.text {
		tx.remove(id, old)
	}
	c.docs[id] = doc
	c.charge(doc.SizeBytes() - old.SizeBytes())
	for _, ix := range c.indexes {
		ix.insert(id, doc)
	}
	for _, tx := range c.text {
		tx.insert(id, doc)
	}
}

// charge records that the stored documents grew (or shrank) by n bytes.
// Growth is taken from the extent chain, opening new extents as the current
// one fills; extent space is never handed back, matching extent-based
// engines. Must hold c.mu.
func (c *Collection) charge(n int64) {
	c.dataSize += n
	if n > 0 {
		c.allocated += n
	}
}

// Get returns the document with the given id.
func (c *Collection) Get(id int64) (*Doc, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	d, ok := c.docs[id]
	return d, ok
}

// Update replaces the document stored under id, reindexing it. It reports
// whether the id existed.
func (c *Collection) Update(id int64, doc *Doc) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	old, ok := c.docs[id]
	if ok {
		c.replaceLocked(id, old, doc)
	}
	return ok
}

// Delete removes the document with the given id, reporting whether it
// existed.
func (c *Collection) Delete(id int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	doc, ok := c.docs[id]
	if !ok {
		return false
	}
	for _, ix := range c.indexes {
		ix.remove(id, doc)
	}
	for _, tx := range c.text {
		tx.remove(id, doc)
	}
	delete(c.docs, id)
	c.removeOrderLocked(id)
	c.charge(-doc.SizeBytes())
	return true
}

// EnsureIndex creates a secondary index named name over path if it does not
// already exist, backfilling existing documents. It reports whether it
// created one: false means the collection is unchanged.
func (c *Collection) EnsureIndex(name, path string, kind IndexKind) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.indexes[name]; ok {
		return false
	}
	ix := newIndex(name, path, kind)
	for _, id := range c.order {
		if id != 0 {
			ix.insert(id, c.docs[id])
		}
	}
	c.indexes[name] = ix
	return true
}

// EnsureTextIndex creates the inverted text index over path if it does not
// already exist, backfilling existing documents, and reports whether it
// created one. The index accelerates case-insensitive substring
// (OpContains) filters on that path; queries it cannot prove equivalent to
// a scan fall back to scanning, so results never change.
func (c *Collection) EnsureTextIndex(path string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.text[path]; ok {
		return false
	}
	tx := newTextIndex(path)
	for _, id := range c.order {
		if id != 0 {
			tx.insert(id, c.docs[id])
		}
	}
	c.text[path] = tx
	return true
}

// TextIndexes returns the collection's inverted text indexes sorted by path.
func (c *Collection) TextIndexes() []*TextIndex {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*TextIndex, 0, len(c.text))
	for _, tx := range c.text {
		out = append(out, tx)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// Indexes returns the collection's indexes sorted by name.
func (c *Collection) Indexes() []*Index {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Index, 0, len(c.indexes))
	for _, ix := range c.indexes {
		out = append(out, ix)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Scan calls fn for every document in insertion order until fn returns
// false. It snapshots the membership under one read lock and iterates
// lock-free, so fn observes a consistent point-in-time view: mutations that
// land during the scan are not visible to it, and fn may itself call back
// into the collection. The callback must not retain the document across
// mutations.
func (c *Collection) Scan(fn func(id int64, d *Doc) bool) {
	ids, docs := c.snapshot()
	for i, id := range ids {
		if !fn(id, docs[i]) {
			return
		}
	}
}

// snapshot returns the live (id, doc) pairs in insertion order under a
// single read lock — the point-in-time view Scan and the sharded router's
// parallel fan-out iterate without holding locks.
func (c *Collection) snapshot() ([]int64, []*Doc) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ids := make([]int64, 0, len(c.docs))
	docs := make([]*Doc, 0, len(c.docs))
	for _, id := range c.order {
		if id == 0 {
			continue
		}
		ids = append(ids, id)
		docs = append(docs, c.docs[id])
	}
	return ids, docs
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
