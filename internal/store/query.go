package store

import (
	"fmt"
	"math"

	"repro/internal/btree"
)

// Query is the one read a shard answers: the documents matching Filter, in
// the shard's order, from the Offset'th on and at most Limit of them, plus
// the exact number that match and, when grouped, how many of them hold each
// value at a path. Everything that reads by filter — a page of /v1/find, an
// unbounded Find, a count, a group count, a plan — is this op with different
// fields set, locally and on the cluster wire.
type Query struct {
	// Filter selects documents; nil matches all.
	Filter Filter
	// Offset is the number of leading matches to skip; a negative one
	// skips none.
	Offset int
	// Limit bounds the documents returned. Zero asks for the total alone;
	// NoLimit (any negative value) returns every match from Offset on.
	Limit int
	// Explain asks for the access path instead of the answer: Plan is set,
	// nothing is matched.
	Explain bool
	// Fields names the top-level fields the caller will read; empty means
	// all of them. A backend that must copy documents to answer — one across
	// a wire — copies only these, so a result document is sure to hold just
	// the listed fields the stored one has. A Collection returns its stored
	// documents whole and never looks at the list.
	Fields []string
	// GroupBy, when set, is a dotted path: Result.Groups then counts every
	// match, whatever the window, by its scalar value there.
	GroupBy string
}

// NoLimit is the Query.Limit of an unbounded query.
const NoLimit = -1

// Result answers a Query.
type Result struct {
	// Docs is the requested window of the matches.
	Docs []*Doc
	// Total is how many documents match, whatever the window.
	Total int64
	// Plan is the access path, set in Explain mode only.
	Plan Explain
	// Groups counts the matches by their value at Query.GroupBy, each key in
	// the place of its first match in the shard's order. A match whose value
	// there is absent, null, a list or a document counts under no key.
	Groups []Group
}

// Group is one key of a grouped query and the number of matches holding it.
type Group struct {
	Key   string
	Count int64
}

// end returns how many leading matches the query's window reaches —
// Offset+Limit clamped to MaxInt, nothing for an empty window — or NoLimit
// for an unbounded query.
func (q Query) end() int {
	switch {
	case q.Limit <= 0:
		return max(q.Limit, NoLimit)
	case q.Offset > math.MaxInt-q.Limit:
		return math.MaxInt
	}
	return q.Offset + q.Limit
}

// Explain describes how a filter executes against the collection: the
// chosen access path and the index serving it, if any.
type Explain struct {
	// AccessPath is "index" or "scan".
	AccessPath string
	// IndexName and IndexKind identify the serving index ("" for scans).
	IndexName string
	IndexKind string
	// Reason explains the decision.
	Reason string
}

// access is the path a filter's candidates come by: the condition an index
// serves and that index. The zero access is a scan.
type access struct {
	cond Cond
	ix   *Index     // holds exactly the ids matching cond (Eq, In, Prefix)
	tx   *TextIndex // holds a superset of the ids matching cond (Contains)
	// residual says the filter asks for more than cond, so every candidate
	// is checked against the whole filter.
	residual bool
}

func (a access) indexed() bool { return a.ix != nil || a.tx != nil }

// plan picks the access path: an index covering the filter's condition, or
// covering the first conjunct of an And that has one. Must hold c.mu.
func (c *Collection) plan(f Filter) access {
	switch f := f.(type) {
	case Cond:
		return c.condAccess(f)
	case And:
		for _, child := range f {
			if cond, ok := child.(Cond); ok {
				if a := c.condAccess(cond); a.indexed() {
					a.residual = true
					return a
				}
			}
		}
	}
	return access{}
}

// condAccess finds the index serving one condition: hash or B-tree for Eq
// and In, B-tree for Prefix, the inverted text index for a Contains whose
// needle it can bound.
func (c *Collection) condAccess(cond Cond) access {
	switch cond.Op {
	case OpEq, OpIn:
		if ix := c.indexFor(cond.Path, false); ix != nil {
			return access{cond: cond, ix: ix}
		}
	case OpPrefix:
		if ix := c.indexFor(cond.Path, true); ix != nil {
			return access{cond: cond, ix: ix}
		}
	case OpContains:
		if tx := c.text[cond.Path]; tx != nil && tx.CanBound(cond.Value.Str()) {
			return access{cond: cond, tx: tx}
		}
	}
	return access{}
}

// indexFor returns an index covering the given path: any kind for point
// lookups, preferring B-tree; B-tree only when rangeScan is required. Must
// hold c.mu.
func (c *Collection) indexFor(path string, rangeScan bool) *Index {
	var fallback *Index
	for _, ix := range c.indexes {
		if ix.Path != path {
			continue
		}
		if ix.Kind == BTreeIndex {
			return ix
		}
		if !rangeScan {
			fallback = ix
		}
	}
	return fallback
}

// page collects one query's window while counting every match.
type page struct {
	docs map[int64]*Doc
	// verify is what a candidate must still satisfy; nil when the index has
	// already proved the match.
	verify        Filter
	offset, limit int
	total         int64
	out           []*Doc
	// groupBy is the path each match is counted by; "" when the query is not
	// grouped or an index has already counted the groups.
	groupBy string
	groups  []Group
	slot    map[string]int // key -> its place in groups
}

// add counts one matching document and keeps it if the window covers it.
func (p *page) add(d *Doc) {
	if p.total >= int64(p.offset) && (p.limit < 0 || len(p.out) < p.limit) {
		p.out = append(p.out, d)
	}
	p.total++
	if p.groupBy != "" {
		p.group(d)
	}
}

// group counts d under its index key at groupBy, a key new to the page
// going last.
func (p *page) group(d *Doc) {
	v, ok := d.Path(p.groupBy)
	if !ok {
		return
	}
	key, ok := indexKey(v)
	if !ok {
		return
	}
	if i, ok := p.slot[key]; ok {
		p.groups[i].Count++
		return
	}
	if p.slot == nil {
		p.slot = make(map[string]int)
	}
	p.slot[key] = len(p.groups)
	p.groups = append(p.groups, Group{Key: key, Count: 1})
}

// addID takes one candidate id.
func (p *page) addID(id int64) {
	if d := p.docs[id]; p.verify == nil || p.verify.Matches(d) {
		p.add(d)
	}
}

// addIDs takes a run of candidate ids. Proven matches are counted by the
// run's length and only the part of it the window covers is touched, unless
// each must be grouped.
func (p *page) addIDs(ids []int64) {
	if p.verify != nil || p.groupBy != "" {
		for _, id := range ids {
			p.addID(id)
		}
		return
	}
	lo := min(max(int64(p.offset)-p.total, 0), int64(len(ids)))
	n := int64(len(ids)) - lo
	if p.limit >= 0 {
		n = min(n, int64(p.limit-len(p.out)))
	}
	if n > 0 && p.out == nil {
		p.out = make([]*Doc, 0, n)
	}
	for _, id := range ids[lo : lo+n] {
		p.out = append(p.out, p.docs[id])
	}
	p.total += int64(len(ids))
}

// Query answers q. An index serves the filter's condition when one covers
// it (see plan): the total then comes from posting-list lengths and only
// the window's documents are touched, unless residual conditions, a text
// index's candidate superset or a group count need each candidate visited.
// Otherwise every document is tested in insertion order; matches outside
// the window are counted, not collected. Results are in ascending id order
// — insertion order — except a prefix scan's, which follow the B-tree's
// keys. An unfiltered group count reads its groups off a hash index over
// the path when one holds a single entry per document (see countingIndex).
func (c *Collection) Query(q Query) Result {
	c.mu.RLock()
	defer c.mu.RUnlock()
	a := c.plan(q.Filter)
	if q.Explain {
		return Result{Plan: c.explain(q.Filter, a)}
	}
	p := page{docs: c.docs, offset: q.Offset, limit: q.Limit, groupBy: q.GroupBy}
	if a.ix == nil || a.residual {
		p.verify = q.Filter
	}
	if q.GroupBy != "" && q.Filter == nil {
		if ix := c.countingIndex(q.GroupBy); ix != nil {
			p.groupBy, p.groups = "", ix.groups()
		}
	}
	switch {
	case a.tx != nil:
		ids, _ := a.tx.Candidates(a.cond.Value.Str())
		p.addIDs(ids)
	case a.ix == nil && p.verify == nil && c.dead == 0:
		// Every document matches and the order has no tombstones: a run of
		// proven ids.
		p.addIDs(c.order)
	case a.ix == nil:
		for _, id := range c.order {
			if id != 0 {
				p.addID(id)
			}
		}
	case a.cond.Op == OpPrefix:
		a.ix.tree.AscendPrefix(a.cond.Value.Str(), func(e btree.Entry) bool {
			p.addID(e.ID)
			return true
		})
	case a.cond.Op == OpIn:
		p.addIDs(a.ix.idsIn(a.cond.Set))
	default:
		p.addIDs(a.ix.ids(a.cond.Value.Str()))
	}
	return Result{Docs: p.out, Total: p.total, Groups: p.groups}
}

// countingIndex returns a hash index over path whose posting-list lengths
// count the documents by their value there, or nil. Must hold c.mu.
func (c *Collection) countingIndex(path string) *Index {
	for _, ix := range c.indexes {
		if ix.Kind == HashIndex && ix.Path == path && ix.listEntries == 0 {
			return ix
		}
	}
	return nil
}

// explain words the access path plan chose for f.
func (c *Collection) explain(f Filter, a access) Explain {
	var ex Explain
	switch {
	case a.tx != nil:
		ex = Explain{
			AccessPath: "index", IndexName: a.tx.Name(), IndexKind: "text",
			Reason: fmt.Sprintf("inverted-text candidates on %s, verified by substring match", a.cond.Path),
		}
	case a.ix != nil:
		reason := "point lookup on " + a.cond.Path
		if a.cond.Op == OpPrefix {
			reason = "prefix scan on " + a.cond.Path
		}
		ex = Explain{AccessPath: "index", IndexName: a.ix.Name, IndexKind: a.ix.Kind.String(), Reason: reason}
	default:
		return Explain{AccessPath: "scan", Reason: c.scanReason(f)}
	}
	if a.residual {
		ex.Reason += "; residual conditions filtered after lookup"
	}
	return ex
}

// scanReason says why no index serves f.
func (c *Collection) scanReason(f Filter) string {
	switch f := f.(type) {
	case Cond:
		switch f.Op {
		case OpEq, OpIn:
			return "no index on " + f.Path
		case OpPrefix:
			return "prefix scan needs a btree index on " + f.Path
		case OpContains:
			if c.text[f.Path] != nil {
				return "substring has characters the text index cannot bound"
			}
			return "substring match needs a text index on " + f.Path
		}
		return "operator is not indexable"
	case And:
		return "no conjunct is served by an index"
	}
	return "filter shape is not indexable"
}
