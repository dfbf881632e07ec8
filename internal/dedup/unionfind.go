// Package dedup implements Data Tamer's entity-consolidation module:
// blocking, candidate-pair generation, learned match classification over
// similarity features, transitive clustering, and record consolidation.
//
// Pairs are scored from profiles, not from strings. A Deduper's Run
// profiles every record once per featurized attribute —
// the normalized value, its runes, trigram and token sets, its numeric
// reading and the classifier's rows for its features (features.go) — and
// scores each candidate pair from two profiles into one reused vector.
// Profiles live in the Run's pairScorer and die with it: nothing is cached
// across Runs or on the records, so there is nothing to invalidate when a
// record changes. Featurizer.Features and Matcher.Prob/Match are the same
// scorer run over two profiles built for the one call.
package dedup

// UnionFind is a disjoint-set forest over [0, n) with union by rank and path
// compression.
type UnionFind struct {
	parent []int
	rank   []int
}

// NewUnionFind returns n singleton sets.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

// Find returns the representative of x's set.
func (uf *UnionFind) Find(x int) int {
	root := x
	for uf.parent[root] != root {
		root = uf.parent[root]
	}
	for uf.parent[x] != root {
		uf.parent[x], x = root, uf.parent[x]
	}
	return root
}

// Union merges the sets containing x and y, reporting whether a merge
// happened (false when already joined).
func (uf *UnionFind) Union(x, y int) bool {
	rx, ry := uf.Find(x), uf.Find(y)
	if rx == ry {
		return false
	}
	if uf.rank[rx] < uf.rank[ry] {
		rx, ry = ry, rx
	}
	uf.parent[ry] = rx
	if uf.rank[rx] == uf.rank[ry] {
		uf.rank[rx]++
	}
	return true
}

// Clusters returns the sets as sorted index slices, ordered by smallest
// member.
func (uf *UnionFind) Clusters() [][]int {
	groups := map[int][]int{}
	for i := range uf.parent {
		r := uf.Find(i)
		groups[r] = append(groups[r], i)
	}
	out := make([][]int, 0, len(groups))
	for i := range uf.parent {
		if uf.Find(i) == i {
			out = append(out, groups[i])
		}
	}
	return out
}
