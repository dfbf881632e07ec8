// Package schema models Data Tamer's bottom-up global schema: the integrated
// attribute set built from incoming source metadata, the per-source
// attribute mappings, and the add/ignore actions of the Fig. 2 workflow.
package schema

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/ingest"
	"repro/internal/record"
	"repro/internal/similarity"
	"repro/internal/textutil"
)

// Attribute is one attribute of a schema, with the value evidence the
// matchers score against.
type Attribute struct {
	Name    string
	Kind    record.Kind
	Samples []string // up to sampleCap distinct sample values
	Sources []string // sources that mapped into this attribute

	sig *ValueSignature // memo of Signature, valid while Samples has not grown
}

const sampleCap = 64

// ValueSignature is what the value matchers read from an attribute's
// Samples, derived once per attribute instead of once per attribute pair.
type ValueSignature struct {
	samples []string // the Samples the signature was derived from

	// Norm is the set of textutil.Normalize'd samples: distinct, sorted.
	Norm []string
	// Lo and Hi span the samples that read as numbers; Numeric reports
	// whether those are at least half of the samples.
	Lo, Hi  float64
	Numeric bool

	tokens     []string
	haveTokens bool
}

// Signature returns the attribute's value signature, deriving it on first
// use and again only after Samples has grown (samples are only ever
// appended). The memo lives on the attribute and nowhere else; like every
// write to a schema, a call must not run beside another use of the same
// attribute.
func (a *Attribute) Signature() *ValueSignature {
	if a.sig != nil && len(a.sig.samples) == len(a.Samples) {
		return a.sig
	}
	sig := &ValueSignature{samples: a.Samples, Norm: make([]string, len(a.Samples))}
	numeric := 0
	for i, s := range a.Samples {
		sig.Norm[i] = textutil.Normalize(s)
		f, ok := record.ParseNumber(s)
		if !ok {
			continue
		}
		if numeric == 0 || f < sig.Lo {
			sig.Lo = f
		}
		if numeric == 0 || f > sig.Hi {
			sig.Hi = f
		}
		numeric++
	}
	sig.Norm = similarity.SortedSet(sig.Norm)
	sig.Numeric = numeric > 0 && numeric*2 >= len(a.Samples)
	a.sig = sig
	return sig
}

// Tokens are the content words of every sample, in sample order. Only the
// TF-IDF matcher reads them, so they are derived when first asked for.
func (s *ValueSignature) Tokens() []string {
	if !s.haveTokens {
		for _, v := range s.samples {
			s.tokens = append(s.tokens, textutil.ContentWords(v)...)
		}
		s.haveTokens = true
	}
	return s.tokens
}

// SourceSchema is the attribute profile of one incoming source.
type SourceSchema struct {
	Source string
	Attrs  []*Attribute
}

// FromSource profiles a registered source into a SourceSchema.
func FromSource(s *ingest.Source) *SourceSchema {
	ss := &SourceSchema{Source: s.Name}
	for _, name := range s.Attributes() {
		attr := &Attribute{
			Name:    name,
			Kind:    s.AttributeType(name),
			Sources: []string{s.Name},
		}
		seen := map[string]bool{}
		for _, v := range s.Values(name) {
			sv := v.Str()
			if seen[sv] || len(attr.Samples) >= sampleCap {
				continue
			}
			seen[sv] = true
			attr.Samples = append(attr.Samples, sv)
		}
		ss.Attrs = append(ss.Attrs, attr)
	}
	return ss
}

// Global is the integrated global schema, built bottom-up from source
// metadata as the paper describes. The zero value is not usable; call
// NewGlobal.
type Global struct {
	attrs    []*Attribute
	byName   map[string]*Attribute // normalized name -> attribute
	mappings []Mapping
	// mapped holds, per source attribute, the global attributes of its
	// recorded mappings in acceptance order: the first is the one in force.
	mapped  map[sourceAttr][]string
	ignored map[sourceAttr]bool
}

// sourceAttr keys a source's attribute by its normalized name.
type sourceAttr struct{ source, attr string }

// Mapping records that a source attribute maps onto a global attribute.
type Mapping struct {
	Source     string
	SourceAttr string
	GlobalAttr string
	Score      float64 // the match score accepted (1.0 for manual adds)
}

// NewGlobal returns an empty global schema.
func NewGlobal() *Global {
	return &Global{
		byName:  make(map[string]*Attribute),
		mapped:  make(map[sourceAttr][]string),
		ignored: make(map[sourceAttr]bool),
	}
}

// Len reports the number of global attributes.
func (g *Global) Len() int { return len(g.attrs) }

// Attributes returns the global attributes in creation order.
func (g *Global) Attributes() []*Attribute { return g.attrs }

// Attribute looks up a global attribute by (normalized) name.
func (g *Global) Attribute(name string) (*Attribute, bool) {
	a, ok := g.byName[record.NormalizeName(name)]
	return a, ok
}

// AddAttribute creates a new global attribute from a source attribute — the
// "add to the global schema" action of Fig. 2. It returns the existing
// attribute when the name is already present.
func (g *Global) AddAttribute(src *Attribute, source string) *Attribute {
	key := record.NormalizeName(src.Name)
	if a, ok := g.byName[key]; ok {
		g.mergeInto(a, src, source)
		return a
	}
	a := &Attribute{
		Name:    strings.ToUpper(key),
		Kind:    src.Kind,
		Samples: append([]string(nil), src.Samples...),
		Sources: []string{source},
	}
	g.byName[key] = a
	g.attrs = append(g.attrs, a)
	g.recordMapping(Mapping{Source: source, SourceAttr: src.Name, GlobalAttr: a.Name, Score: 1})
	return a
}

// MapAttribute records that a source attribute matches an existing global
// attribute with the given score, merging its value evidence.
func (g *Global) MapAttribute(src *Attribute, source string, global *Attribute, score float64) error {
	if _, ok := g.byName[record.NormalizeName(global.Name)]; !ok {
		return fmt.Errorf("schema: global attribute %q not in schema", global.Name)
	}
	g.mergeInto(global, src, source)
	g.recordMapping(Mapping{Source: source, SourceAttr: src.Name, GlobalAttr: global.Name, Score: score})
	return nil
}

// recordMapping appends m unless its source attribute is already recorded
// as mapping to the same global attribute: a live server accepts the same
// mapping again with every batch, and the first acceptance is the record.
func (g *Global) recordMapping(m Mapping) {
	key := sourceAttr{m.Source, record.NormalizeName(m.SourceAttr)}
	if slices.Contains(g.mapped[key], m.GlobalAttr) {
		return
	}
	g.mapped[key] = append(g.mapped[key], m.GlobalAttr)
	g.mappings = append(g.mappings, m)
}

// Ignore marks a source attribute as deliberately unmapped — Fig. 2's
// "ignore" action.
func (g *Global) Ignore(source, attr string) {
	g.ignored[sourceAttr{source, record.NormalizeName(attr)}] = true
}

// IsIgnored reports whether the source attribute was marked ignore.
func (g *Global) IsIgnored(source, attr string) bool {
	return g.ignored[sourceAttr{source, record.NormalizeName(attr)}]
}

func (g *Global) mergeInto(dst, src *Attribute, source string) {
	seen := map[string]bool{}
	for _, s := range dst.Samples {
		seen[s] = true
	}
	for _, s := range src.Samples {
		if !seen[s] && len(dst.Samples) < sampleCap {
			seen[s] = true
			dst.Samples = append(dst.Samples, s)
		}
	}
	for _, got := range dst.Sources {
		if got == source {
			return
		}
	}
	dst.Sources = append(dst.Sources, source)
}

// Mappings returns all recorded mappings in acceptance order.
func (g *Global) Mappings() []Mapping { return g.mappings }

// MappingFor returns the global attribute a source attribute maps to.
func (g *Global) MappingFor(source, attr string) (string, bool) {
	return g.mappingFor(sourceAttr{source, record.NormalizeName(attr)})
}

func (g *Global) mappingFor(key sourceAttr) (string, bool) {
	if targets := g.mapped[key]; len(targets) > 0 {
		return targets[0], true
	}
	return "", false
}

// Translate rewrites a record's field names into global attribute names
// using the recorded mappings for its source. Unmapped, un-ignored fields
// keep their original names.
func (g *Global) Translate(r *record.Record) *record.Record {
	out := record.New()
	out.Source = r.Source
	out.ID = r.ID
	for _, f := range r.Fields() {
		key := sourceAttr{r.Source, record.NormalizeName(f.Name)}
		if g.ignored[key] {
			continue
		}
		if global, ok := g.mappingFor(key); ok {
			out.Set(global, f.Value)
			continue
		}
		out.Set(f.Name, f.Value)
	}
	return out
}

// String summarizes the global schema.
func (g *Global) String() string {
	names := make([]string, len(g.attrs))
	for i, a := range g.attrs {
		names[i] = a.Name
	}
	sort.Strings(names)
	return "global{" + strings.Join(names, ", ") + "}"
}
