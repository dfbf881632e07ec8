package store

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"unsafe"

	"repro/internal/textutil"
)

// Query is the one read a shard answers: the documents matching Filter, in
// the shard's order or, when ranked, best first, from the Offset'th on and
// at most Limit of them, plus the exact number that match and, when
// grouped, how many of them hold each value at a path. Everything that
// reads by filter — a page of /v1/find, an unbounded Find, a show's text
// feed, a count, a group count, a plan — is this op with different fields
// set, locally and on the cluster wire.
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
	// Rank, when set, orders the window best first by relevance (see Rank)
	// instead of the shard's order; Total and Groups still count every
	// match, and Explain ignores it. A collection scores every match and
	// keeps the best Offset+Limit; a router asks each shard for its best
	// Offset+Limit, scores the returned documents again and cuts the window
	// from their merge, so it refuses a rank whose path Fields leaves out.
	Rank *Rank
}

// NoLimit is the Query.Limit of an unbounded query.
const NoLimit = -1

// Result answers a Query.
type Result struct {
	// Docs is the requested window of the matches.
	Docs []*Doc
	// Encoded, when set, holds the window in place of Docs, as the list a
	// remote shard sent and not yet decoded, so that a router builds only
	// the documents it keeps. Window reads either.
	Encoded *DocList
	// Total is how many documents match, whatever the window.
	Total int64
	// Plan is the access path, set in Explain mode only.
	Plan Explain
	// Groups counts the matches by their value at Query.GroupBy, each key in
	// the place of its first match in the shard's order. A match whose value
	// there is absent, null, a list or a document counts under no key.
	Groups []Group
}

// Window returns the window's documents: Docs, or every document of
// Encoded, built.
func (r Result) Window() ([]*Doc, error) {
	if r.Encoded == nil {
		return r.Docs, nil
	}
	return r.Encoded.AppendWindow(make([]*Doc, 0, r.Encoded.Len()), 0, r.Encoded.Len())
}

// held is how many documents the window holds.
func (r Result) held() int {
	if r.Encoded == nil {
		return len(r.Docs)
	}
	return r.Encoded.Len()
}

// appendWindow appends the window's documents [from, to) to dst. An encoded
// window is read whole, so that a malformed document outside [from, to)
// still fails it.
func (r Result) appendWindow(dst []*Doc, from, to int) ([]*Doc, error) {
	if r.Encoded == nil {
		return append(dst, r.Docs[from:to]...), nil
	}
	return r.Encoded.AppendWindow(dst, from, to)
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
	ix   *Index     // holds the ids matching cond (Eq, In, Prefix), more unless ix.exact(cond)
	tx   *textIndex // holds a superset of the ids matching cond (Contains)
	// needle is a Contains condition's value lowered, once for both the
	// plan and the text index's lookup. It aliases the query's scratch.
	needle string
	// residual says the filter asks for more than cond, so every candidate
	// is checked against the whole filter.
	residual bool
}

func (a access) indexed() bool { return a.ix != nil || a.tx != nil }

// plan picks the access path: an index covering the filter's condition, or
// covering the first conjunct of an And that has one. Must hold c.mu.
func (c *Collection) plan(f Filter, sc *scratch) access {
	switch f := f.(type) {
	case Cond:
		return c.condAccess(f, sc)
	case And:
		for _, child := range f {
			if cond, ok := child.(Cond); ok {
				if a := c.condAccess(cond, sc); a.indexed() {
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
// needle it can bound. A Contains needle is lowered into sc.
func (c *Collection) condAccess(cond Cond, sc *scratch) access {
	switch cond.Op {
	case OpEq, OpIn:
		if ix := c.indexFor(cond.Path, false); ix != nil && ix.serves(cond) {
			return access{cond: cond, ix: ix}
		}
	case OpPrefix:
		if ix := c.indexFor(cond.Path, true); ix != nil {
			return access{cond: cond, ix: ix}
		}
	case OpContains:
		if tx := c.text[cond.Path]; tx != nil {
			sc.lower = textutil.AppendLower(sc.lower[:0], cond.Value.Str())
			if needle := unsafe.String(unsafe.SliceData(sc.lower), len(sc.lower)); canBound(needle) {
				return access{cond: cond, tx: tx, needle: needle}
			}
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
	// top keeps the best matches of a ranked query; its rank is nil when
	// the window is in the shard's order or empty.
	top topK
}

// add takes one candidate document: if it matches, it is counted, and kept
// if the window covers it.
func (p *page) add(d *Doc) {
	if p.verify != nil && !p.verify.Matches(d) {
		return
	}
	switch {
	case p.top.rank != nil:
		p.top.add(d)
	case p.total >= int64(p.offset) && (p.limit < 0 || len(p.out) < p.limit):
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

// proven reports whether a run of candidates can be counted by its length:
// none must be checked, grouped or ranked.
func (p *page) proven() bool { return p.verify == nil && p.groupBy == "" && p.top.rank == nil }

// window returns the part [lo, hi) of a proven run of n candidates that the
// window covers, making room for it in the page.
func (p *page) window(n int) (lo, hi int) {
	lo = int(min(max(int64(p.offset)-p.total, 0), int64(n)))
	hi = n
	if p.limit >= 0 {
		hi = lo + min(hi-lo, p.limit-len(p.out))
	}
	if p.out == nil && hi > lo {
		p.out = make([]*Doc, 0, hi-lo)
	}
	return lo, hi
}

// addDocs takes a scan's candidates, the documents themselves. A proven
// run is counted by its length and only the part the window covers is
// kept.
func addDocs(p *page, docs []*Doc) {
	if !p.proven() {
		for _, d := range docs {
			p.add(d)
		}
		return
	}
	lo, hi := p.window(len(docs))
	p.out = append(p.out, docs[lo:hi]...)
	p.total += int64(len(docs))
}

// addList takes the candidates a posting list holds, doc giving each id's
// document. A proven list is counted by its length, and only the ids the
// window covers are decoded past the ones it skips and looked up. Each
// candidate of a list that is not is visited, the page first taking room
// for as much of the window as the list could fill.
func addList(p *page, list postings, doc func(int64) *Doc) {
	it, n := list.iter(), list.len()
	if !p.proven() {
		if p.top.rank == nil {
			p.window(n)
		}
		for id, ok := it.next(); ok; id, ok = it.next() {
			p.add(doc(id))
		}
		return
	}
	lo, hi := p.window(n)
	if hi > lo {
		it.skip(lo)
		for range hi - lo {
			id, _ := it.next()
			p.out = append(p.out, doc(id))
		}
	}
	p.total += int64(n)
}

// scratch is one query's working memory: its Contains needle lowered, and,
// for candidates merged from more posting lists than one, the keys looked
// up, the lists gathered, and two buffers that results are written into in
// turn, so that one can be read while the next is written. A query takes
// it from scratchPool and puts it back when done, so a query that lowers or
// merges allocates nothing once the buffers have grown.
type scratch struct {
	lower []byte
	keys  []string
	one   postings // the one list gathered that holds ids, until a second does
	ids   []int64  // the ids of every list gathered, once a second holds any
	keep  []bool
	enc   [2][]byte
	next  int // the buffer of enc the next result goes to
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// reset begins gathering lists for a union.
func (sc *scratch) reset() { sc.one, sc.ids = postings{}, sc.ids[:0] }

// gather adds list to the union.
func (sc *scratch) gather(list postings) {
	switch {
	case list.empty():
	case sc.one.empty():
		sc.one = list
	default:
		if len(sc.ids) == 0 {
			sc.ids = sc.one.appendTo(sc.ids)
		}
		sc.ids = list.appendTo(sc.ids)
	}
}

// union returns the ids of the lists gathered since reset, ascending and
// each once: the one list that holds any as it is, else their merge,
// written into the next buffer.
func (sc *scratch) union() postings {
	if len(sc.ids) == 0 {
		return sc.one
	}
	slices.Sort(sc.ids)
	out := sc.result()
	for _, id := range slices.Compact(sc.ids) {
		out.add(id)
	}
	return sc.done(out)
}

// result returns an empty list that writes into the next buffer; done
// keeps what the list grew the buffer to and turns to the other one.
func (sc *scratch) result() (p postings) {
	p.setBytes(sc.enc[sc.next][:0])
	return p
}

func (sc *scratch) done(p postings) postings {
	sc.enc[sc.next] = p.bytes()[:0]
	sc.next ^= 1
	return p
}

// Query answers q. An index serves the filter's condition when one covers
// it (see plan): the total then comes from posting-list lengths and only
// the window's documents are touched, unless residual conditions, a text
// index's candidate superset, a key shared by values of different kinds or
// a group count need each candidate visited.
// Otherwise every document is tested in the collection's order; matches
// outside the window are counted, not collected. Results are in ascending
// id order — the collection's order, insertion order — except a prefix
// scan's, which follow the B-tree's keys. A ranked query scores every match
// and returns the best of the window in rank order (see Rank). An
// unfiltered group count reads its groups off an index over the path when
// one holds a single entry per document (see countingIndex). Candidates
// merged from several posting lists go through a pooled scratch, so no
// query keeps a list of ids.
func (c *Collection) Query(q Query) Result {
	c.mu.RLock()
	defer c.mu.RUnlock()
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	a := c.plan(q.Filter, sc)
	if q.Explain {
		return Result{Plan: c.explain(q.Filter, a)}
	}
	p := page{offset: q.Offset, limit: q.Limit, groupBy: q.GroupBy}
	if q.Rank != nil && q.Limit != 0 {
		p.top = topK{rank: q.Rank, k: q.end()}
	}
	if a.ix == nil || a.residual || !a.ix.exact(a.cond) {
		p.verify = q.Filter
	}
	if q.GroupBy != "" && q.Filter == nil {
		if ix := c.countingIndex(q.GroupBy); ix != nil {
			p.groupBy, p.groups = "", ix.groups()
		}
	}
	switch {
	case a.ix == nil && a.tx == nil:
		addDocs(&p, c.docs)
	case a.cond.Op == OpPrefix:
		// The plan serves a prefix only from a B-tree index.
		a.ix.keys.(treeKeys).AscendPrefix(a.cond.Value.Str(), func(_ string, list *postings) bool {
			addList(&p, *list, c.doc)
			return true
		})
	case a.cond.Op == OpEq && !a.ix.byNumber(a.cond.Value):
		addList(&p, a.ix.keys.get(a.cond.Value.Str()), c.doc)
	case a.tx != nil:
		addList(&p, a.tx.candidates(a.needle, sc), c.doc)
	default:
		addList(&p, a.ix.idsIn(a.cond, sc), c.doc)
	}
	if p.top.rank != nil {
		p.out = p.top.window(q.Offset)
	}
	return Result{Docs: p.out, Total: p.total, Groups: p.groups}
}

// countingIndex returns an index over path whose posting-list lengths
// count the documents by their value there, or nil. Must hold c.mu.
func (c *Collection) countingIndex(path string) *Index {
	for _, ix := range c.indexes {
		if ix.Path == path && ix.listEntries == 0 {
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
			AccessPath: "index", IndexName: a.tx.Name(), IndexKind: TextIndex.String(),
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
			if c.indexFor(f.Path, false) != nil {
				return "the index on " + f.Path + " cannot list every key of a value equal to one asked for"
			}
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
