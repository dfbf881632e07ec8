// Package schema models Data Tamer's bottom-up global schema: the integrated
// attribute set built from incoming source metadata, the per-source
// attribute mappings, and the map/add actions of the Fig. 2 workflow.
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

	sig  *ValueSignature // memo of Signature, valid while Samples has not grown
	prof *NameProfile    // memo of NameProfile, valid while Name is unchanged
}

const sampleCap = 64

// NameProfile is what the name matcher reads from an attribute's Name,
// derived once per attribute instead of once per attribute pair.
type NameProfile struct {
	from string // the Name the profile was derived from

	// Norm is record.NormalizeName(Name) and Runes its runes.
	Norm  string
	Runes []rune
	// Tokens are Norm's textutil tokens as they stand, before any synonym
	// dictionary canonicalizes them.
	Tokens []string
}

// newNameProfile profiles name, whose record.NormalizeName is norm.
func newNameProfile(name, norm string) *NameProfile {
	var buf [8]textutil.Token
	tokens := textutil.AppendTokens(buf[:0], norm)
	p := &NameProfile{from: name, Norm: norm, Runes: []rune(norm), Tokens: make([]string, len(tokens))}
	for i, t := range tokens {
		p.Tokens[i] = t.Text
	}
	return p
}

// NameProfile returns the profile of the attribute's name. FromSource and
// AddAttribute build it with the attribute; an attribute built by hand
// derives it on first use, and any attribute again only once its Name is no
// longer the one the profile came from. The memo follows Signature's rules.
func (a *Attribute) NameProfile() *NameProfile {
	if a.prof == nil || a.prof.from != a.Name {
		a.prof = newNameProfile(a.Name, record.NormalizeName(a.Name))
	}
	return a.prof
}

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

// SourceSchema is the attribute profile of one incoming source.
type SourceSchema struct {
	Source string
	Attrs  []*Attribute
}

// FromSource profiles a registered source into a SourceSchema: one attribute
// per normalized field name, in first-seen order under its first spelling,
// with the kind of the majority of its non-null values (string when it has
// none or on a tie with strings) and up to sampleCap distinct samples in
// record order. It reads each field of each record once; a sample is checked
// against the at most sampleCap kept so far.
func FromSource(s *ingest.Source) *SourceSchema {
	ss := &SourceSchema{Source: s.Name}
	var kinds [][record.KindTime + 1]int // parallel to ss.Attrs
	byKey := map[string]int{}            // normalized name -> attribute
	byName := map[string]int{}           // field name as spelled -> attribute
	for _, r := range s.Records {
		for _, f := range r.Fields() {
			i, ok := byName[f.Name]
			if !ok {
				key := record.NormalizeName(f.Name)
				if i, ok = byKey[key]; !ok {
					i = len(ss.Attrs)
					byKey[key] = i
					ss.Attrs = append(ss.Attrs, &Attribute{Name: f.Name, Sources: []string{s.Name}, prof: newNameProfile(f.Name, key)})
					kinds = append(kinds, [record.KindTime + 1]int{})
				}
				byName[f.Name] = i
			}
			if f.Value.IsNull() {
				continue
			}
			attr := ss.Attrs[i]
			kinds[i][f.Value.Kind()]++
			if len(attr.Samples) < sampleCap {
				if sv := f.Value.Str(); !slices.Contains(attr.Samples, sv) {
					attr.Samples = append(attr.Samples, sv)
				}
			}
		}
	}
	for i, attr := range ss.Attrs {
		attr.Kind = record.KindString
		for k, best := record.KindString, 0; k <= record.KindTime; k++ {
			if n := kinds[i][k]; n > best {
				attr.Kind, best = k, n
			}
		}
	}
	return ss
}

// Global is the integrated global schema, built bottom-up from source
// metadata as the paper describes. The zero value is not usable; call
// NewGlobal.
type Global struct {
	attrs  []*Attribute
	byName map[string]*Attribute // normalized name -> attribute
	// mapped holds, per source attribute, the global attributes of its
	// recorded mappings in acceptance order: the first is the one in force.
	mapped map[sourceAttr][]string
}

// sourceAttr keys a source's attribute by its normalized name.
type sourceAttr struct{ source, attr string }

// NewGlobal returns an empty global schema.
func NewGlobal() *Global {
	return &Global{
		byName: make(map[string]*Attribute),
		mapped: make(map[sourceAttr][]string),
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
// "add to the global schema" action of Fig. 2 — named by the upper case of
// the source attribute's normalized name. When an attribute of that name is
// already present it maps the source attribute onto it instead.
func (g *Global) AddAttribute(src *Attribute, source string) *Attribute {
	srcKey := src.NameProfile().Norm
	name := strings.ToUpper(srcKey)
	if a, ok := g.byName[record.NormalizeName(name)]; ok {
		g.mergeInto(a, src, source)
		g.recordMapping(source, srcKey, a.Name)
		return a
	}
	a := &Attribute{
		Name:    name,
		Kind:    src.Kind,
		Samples: append([]string(nil), src.Samples...),
		Sources: []string{source},
	}
	g.byName[a.NameProfile().Norm] = a // profiled with the attribute, not by its first match
	g.attrs = append(g.attrs, a)
	g.recordMapping(source, srcKey, a.Name)
	return a
}

// MapAttribute records that a source attribute matches an existing global
// attribute, merging its value evidence.
func (g *Global) MapAttribute(src *Attribute, source string, global *Attribute) error {
	if _, ok := g.byName[global.NameProfile().Norm]; !ok {
		return fmt.Errorf("schema: global attribute %q not in schema", global.Name)
	}
	g.mergeInto(global, src, source)
	g.recordMapping(source, src.NameProfile().Norm, global.Name)
	return nil
}

// recordMapping records that the source's attribute of normalized name attr
// maps onto the global attribute global, unless it already does: a live
// server accepts the same mapping again with every batch, and the first
// acceptance is the record.
func (g *Global) recordMapping(source, attr, global string) {
	key := sourceAttr{source, attr}
	if !slices.Contains(g.mapped[key], global) {
		g.mapped[key] = append(g.mapped[key], global)
	}
}

// mergeInto adds src's samples dst does not hold, while dst holds fewer than
// sampleCap, and source to dst's sources.
func (g *Global) mergeInto(dst, src *Attribute, source string) {
	for _, s := range src.Samples {
		if len(dst.Samples) >= sampleCap {
			break
		}
		if !slices.Contains(dst.Samples, s) {
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

func (g *Global) mappingFor(key sourceAttr) (string, bool) {
	if targets := g.mapped[key]; len(targets) > 0 {
		return targets[0], true
	}
	return "", false
}

// Translate rewrites a record's field names into global attribute names
// using the recorded mappings for its source. Unmapped fields keep their
// original names. Where two fields land on names that normalize alike (two
// source fields mapped to one global attribute, say), the record keeps the
// first one's position with the later one's name and value, as Set does.
func (g *Global) Translate(r *record.Record) *record.Record {
	var p columnPlan
	p.resolve(g, r)
	return p.translate(r)
}

// TranslateAll is Translate over a batch of records. It resolves a column
// plan once for each run of records that spell the same fields in the same
// order under the same source (the records of a generated source are one
// such run) and appends each record's fields under the plan's targets,
// scanning the record built so far only for a target that collides.
func (g *Global) TranslateAll(recs []*record.Record) []*record.Record {
	out := make([]*record.Record, len(recs))
	var p columnPlan
	for i, r := range recs {
		if !p.fits(r) {
			p.resolve(g, r)
		}
		out[i] = p.translate(r)
	}
	return out
}

// columnPlan translates the records of one source that spell fields as
// names, in that order: field i is renamed targets[i], and collides[i]
// marks a target that normalizes like another field's.
type columnPlan struct {
	source   string
	names    []string
	targets  []string
	collides []bool
}

// fits reports whether the plan was resolved for r's source and field names.
// The zero plan fits the records of no fields and no source.
func (p *columnPlan) fits(r *record.Record) bool {
	fields := r.Fields()
	if r.Source != p.source || len(fields) != len(p.names) {
		return false
	}
	for i, f := range fields {
		if f.Name != p.names[i] {
			return false
		}
	}
	return true
}

// resolve makes the plan r's, reusing the plan's slices. A field's target is
// the global attribute of its source's mapping in force, or its own name.
func (p *columnPlan) resolve(g *Global, r *record.Record) {
	p.source = r.Source
	p.names, p.targets, p.collides = p.names[:0], p.targets[:0], p.collides[:0]
	for i, f := range r.Fields() {
		target, collides := f.Name, false
		if global, ok := g.mappingFor(sourceAttr{r.Source, record.NormalizeName(f.Name)}); ok {
			target = global
		}
		for j := range i {
			if record.NameEqual(p.targets[j], target) {
				p.collides[j], collides = true, true
			}
		}
		p.names = append(p.names, f.Name)
		p.targets = append(p.targets, target)
		p.collides = append(p.collides, collides)
	}
}

// translate builds r under the plan, which must fit it. A field whose target
// collides goes through Set, which finds the earlier field of that name;
// every other one is appended.
func (p *columnPlan) translate(r *record.Record) *record.Record {
	out := record.NewCap(r.Len())
	out.Source = r.Source
	out.ID = r.ID
	for i, f := range r.Fields() {
		if p.collides[i] {
			out.Set(p.targets[i], f.Value)
		} else {
			out.Append(p.targets[i], f.Value)
		}
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
