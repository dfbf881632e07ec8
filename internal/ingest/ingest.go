// Package ingest implements the data-ingest module of Figure 1: building
// structured sources from records and decoded JSON objects, inferring
// column types, and registering sources with the curation pipeline.
package ingest

import (
	"fmt"
	"sort"

	"repro/internal/record"
)

// Source is one registered data source: a name, its records, and the
// inferred per-attribute types.
type Source struct {
	Name    string
	Records []*record.Record
}

// NewSource builds a source from records, stamping provenance on each.
func NewSource(name string, recs []*record.Record) *Source {
	s := &Source{Name: name}
	s.Append(recs)
	return s
}

// Append adds records to the source, stamping provenance and continuing
// the ID sequence — the incremental counterpart of NewSource.
func (s *Source) Append(recs []*record.Record) {
	base := len(s.Records)
	for i, r := range recs {
		r.Source = s.Name
		if r.ID == "" {
			r.ID = fmt.Sprintf("%s#%d", s.Name, base+i)
		}
	}
	s.Records = append(s.Records, recs...)
}

// Attributes returns the union of attribute names across records, in first-
// seen order.
func (s *Source) Attributes() []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range s.Records {
		for _, f := range r.Fields() {
			key := record.NormalizeName(f.Name)
			if !seen[key] {
				seen[key] = true
				out = append(out, f.Name)
			}
		}
	}
	return out
}

// AttributeType infers the dominant value kind of an attribute: the kind of
// the majority of its non-null values (string when empty or tied toward
// strings).
func (s *Source) AttributeType(name string) record.Kind {
	counts := map[record.Kind]int{}
	for _, r := range s.Records {
		v, ok := r.Get(name)
		if !ok || v.IsNull() {
			continue
		}
		counts[v.Kind()]++
	}
	best, bestN := record.KindString, 0
	// Deterministic tie-break: iterate kinds in fixed order.
	for _, k := range []record.Kind{record.KindString, record.KindInt, record.KindFloat, record.KindBool, record.KindTime} {
		if counts[k] > bestN {
			best, bestN = k, counts[k]
		}
	}
	return best
}

// Values returns the non-null values of an attribute across records.
func (s *Source) Values(name string) []record.Value {
	var out []record.Value
	for _, r := range s.Records {
		if v, ok := r.Get(name); ok && !v.IsNull() {
			out = append(out, v)
		}
	}
	return out
}

// RecordFromMap builds a flat record from one decoded JSON object. Nested
// objects and arrays are rejected; semi-structured input belongs in the
// document store. Keys are set in sorted order so record shape is
// deterministic.
func RecordFromMap(row map[string]any) (*record.Record, error) {
	rec := record.New()
	keys := make([]string, 0, len(row))
	for k := range row {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v, err := jsonValue(row[k])
		if err != nil {
			return nil, fmt.Errorf("field %s: %w", k, err)
		}
		rec.Set(k, v)
	}
	return rec, nil
}

func jsonValue(v any) (record.Value, error) {
	switch x := v.(type) {
	case nil:
		return record.Null, nil
	case string:
		return record.Infer(x), nil
	case float64:
		if x == float64(int64(x)) {
			return record.Int(int64(x)), nil
		}
		return record.Float(x), nil
	case bool:
		return record.Bool(x), nil
	default:
		return record.Null, fmt.Errorf("unsupported JSON value of type %T", v)
	}
}

// Registry tracks registered sources in registration order.
type Registry struct {
	sources []*Source
	byName  map[string]*Source
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Source)}
}

// Register adds a source; re-registering a name replaces it in place.
func (g *Registry) Register(s *Source) {
	if old, ok := g.byName[s.Name]; ok {
		for i, got := range g.sources {
			if got == old {
				g.sources[i] = s
				break
			}
		}
		g.byName[s.Name] = s
		return
	}
	g.byName[s.Name] = s
	g.sources = append(g.sources, s)
}

// Get returns the source registered under name.
func (g *Registry) Get(name string) (*Source, bool) {
	s, ok := g.byName[name]
	return s, ok
}

// Sources returns all sources in registration order.
func (g *Registry) Sources() []*Source { return g.sources }
