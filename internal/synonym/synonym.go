// Package synonym implements the synonym machinery the schema matcher leans
// on: a union-find synonym dictionary with a seed vocabulary for the
// curation domain.
package synonym

import "strings"

// Dict groups terms into synonym sets. The zero value is not usable; call
// NewDict or Default.
type Dict struct {
	parent map[string]string
	rank   map[string]int
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{parent: make(map[string]string), rank: make(map[string]int)}
}

func norm(s string) string { return strings.ToLower(strings.TrimSpace(s)) }

func (d *Dict) find(t string) string {
	if _, ok := d.parent[t]; !ok {
		d.parent[t] = t
	}
	root := t
	for d.parent[root] != root {
		root = d.parent[root]
	}
	for d.parent[t] != root { // path compression
		d.parent[t], t = root, d.parent[t]
	}
	return root
}

// Add declares a and b synonyms, merging their synonym sets.
func (d *Dict) Add(a, b string) {
	ra, rb := d.find(norm(a)), d.find(norm(b))
	if ra == rb {
		return
	}
	if d.rank[ra] < d.rank[rb] {
		ra, rb = rb, ra
	}
	d.parent[rb] = ra
	if d.rank[ra] == d.rank[rb] {
		d.rank[ra]++
	}
}

// AddGroup declares every term in the group mutually synonymous.
func (d *Dict) AddGroup(terms ...string) {
	for i := 1; i < len(terms); i++ {
		d.Add(terms[0], terms[i])
	}
}

// root returns the representative of a normalized term's set and whether
// the term is known, adding nothing for an unknown one. A term that is its
// own root, or whose parent is, costs one or two lookups; a longer path is
// compressed by find.
func (d *Dict) root(t string) (string, bool) {
	p, ok := d.parent[t]
	switch {
	case !ok:
		return t, false
	case p == t || d.parent[p] == p:
		return p, true
	default:
		return d.find(t), true
	}
}

// AreSynonyms reports whether a and b are in the same synonym set. A term is
// always a synonym of itself.
func (d *Dict) AreSynonyms(a, b string) bool {
	na, nb := norm(a), norm(b)
	if na == nb {
		return true
	}
	ra, ok := d.root(na)
	if !ok {
		return false
	}
	rb, ok := d.root(nb)
	return ok && ra == rb
}

// Canonical returns the representative of the term's synonym set (the term
// itself when unknown).
func (d *Dict) Canonical(t string) string {
	r, _ := d.root(norm(t))
	return r
}

// Len reports the number of known terms.
func (d *Dict) Len() int { return len(d.parent) }

// Default returns a dictionary seeded with the attribute-name vocabulary of
// the Broadway curation domain, the synonyms Figs. 2-3 rely on.
func Default() *Dict {
	d := NewDict()
	d.AddGroup("show", "show_name", "production", "title", "name")
	d.AddGroup("theater", "theatre", "venue", "playhouse")
	d.AddGroup("price", "cost", "ticket_price", "cheapest_price", "fare")
	d.AddGroup("schedule", "performance", "times", "showtimes", "performance_times")
	d.AddGroup("location", "address", "venue_address", "street")
	d.AddGroup("discount", "deal", "offer", "promo")
	d.AddGroup("first", "opening", "opening_date", "premiere", "start_date")
	d.AddGroup("phone", "telephone", "tel")
	d.AddGroup("url", "website", "link", "web")
	d.AddGroup("city", "town")
	d.AddGroup("company", "corporation", "firm", "org", "organization")
	d.AddGroup("rating", "stars", "score")
	d.AddGroup("notes", "comments", "remarks")
	d.AddGroup("capacity", "seats", "seating")
	d.AddGroup("runtime_minutes", "running_time", "runtime", "duration")
	d.AddGroup("accessible", "wheelchair_access", "ada")
	d.AddGroup("matinee", "matinee_day")
	d.AddGroup("state", "province", "provinceorstate")
	return d
}
