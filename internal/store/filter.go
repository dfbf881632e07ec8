package store

import (
	"strings"

	"repro/internal/record"
	"repro/internal/textutil"
)

// Op enumerates comparison operators usable in filters.
type Op int

// Supported filter operators.
const (
	OpEq Op = iota
	OpNe
	OpGt
	OpGe
	OpLt
	OpLe
	OpContains // substring, case-insensitive
	OpPrefix   // string prefix
	OpExists   // field present (value ignored)
	OpIn       // value in set
)

// Filter selects documents. Implementations must be pure predicates.
type Filter interface {
	// Matches reports whether the document satisfies the filter.
	Matches(d *Doc) bool
}

// Cond is a single-field condition on a dotted path.
type Cond struct {
	Path  string
	Op    Op
	Value record.Value
	Set   []record.Value // for OpIn
}

// Eq builds an equality condition.
func Eq(path string, v record.Value) Cond { return Cond{Path: path, Op: OpEq, Value: v} }

// EqStr builds a string-equality condition.
func EqStr(path, s string) Cond { return Eq(path, record.String(s)) }

// Contains builds a case-insensitive substring condition.
func Contains(path, substr string) Cond {
	return Cond{Path: path, Op: OpContains, Value: record.String(substr)}
}

// Exists builds a field-presence condition.
func Exists(path string) Cond { return Cond{Path: path, Op: OpExists} }

// Matches implements Filter.
func (c Cond) Matches(d *Doc) bool {
	v, ok := d.Path(c.Path)
	if c.Op == OpExists {
		return ok
	}
	if !ok {
		return false
	}
	// A condition on a list field matches when any element matches.
	if v.IsList() {
		for _, e := range v.List() {
			if c.matchesValue(e) {
				return true
			}
		}
		return false
	}
	return c.matchesValue(v)
}

func (c Cond) matchesValue(v DocValue) bool {
	if !v.IsScalar() {
		return false
	}
	s := v.Scalar()
	switch c.Op {
	case OpEq:
		return s.Equal(c.Value)
	case OpNe:
		return !s.Equal(c.Value)
	case OpGt:
		return record.Compare(s, c.Value) > 0
	case OpGe:
		return record.Compare(s, c.Value) >= 0
	case OpLt:
		return record.Compare(s, c.Value) < 0
	case OpLe:
		return record.Compare(s, c.Value) <= 0
	case OpContains:
		return textutil.ContainsFold(s.Str(), c.Value.Str())
	case OpPrefix:
		return strings.HasPrefix(s.Str(), c.Value.Str())
	case OpIn:
		for _, w := range c.Set {
			if s.Equal(w) {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// And matches documents satisfying every child filter. An empty And matches
// everything.
type And []Filter

// Matches implements Filter.
func (a And) Matches(d *Doc) bool {
	for _, f := range a {
		if !f.Matches(d) {
			return false
		}
	}
	return true
}

// Or matches documents satisfying at least one child filter. An empty Or
// matches nothing.
type Or []Filter

// Matches implements Filter.
func (o Or) Matches(d *Doc) bool {
	for _, f := range o {
		if f.Matches(d) {
			return true
		}
	}
	return false
}

// Not inverts a filter.
type Not struct{ Inner Filter }

// Matches implements Filter.
func (n Not) Matches(d *Doc) bool { return !n.Inner.Matches(d) }

// All matches every document.
type All struct{}

// Matches implements Filter.
func (All) Matches(*Doc) bool { return true }
