package schema_test

// Schema integration against the code it replaced. The reference is the
// earlier MatchSource, NameMatcher.Score, FromSource, mergeInto and
// translate, kept as they stood: names normalized, tokenized and converted
// to runes again for every attribute pair, the whole suggestion list built
// and sorted, a set of seen samples built per attribute and per merge, and
// every translated field stored through Record.Set. The new code keeps name
// profiles on the attribute, a top K in place, no seen sets and a column
// plan per run of records; none of that may change a report, the global
// schema or a translated record.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/ingest"
	"repro/internal/match"
	"repro/internal/record"
	"repro/internal/schema"
	"repro/internal/similarity"
	"repro/internal/synonym"
	"repro/internal/textutil"
)

// refGlobal is the global schema as it stood, over the same attributes.
type refGlobal struct {
	attrs  []*schema.Attribute
	byName map[string]*schema.Attribute // normalized name -> attribute
	mapped map[refSourceAttr][]string
}

type refSourceAttr struct{ source, attr string }

func newRefGlobal() *refGlobal {
	return &refGlobal{
		byName: make(map[string]*schema.Attribute),
		mapped: make(map[refSourceAttr][]string),
	}
}

func (g *refGlobal) Attributes() []*schema.Attribute { return g.attrs }

func (g *refGlobal) Attribute(name string) (*schema.Attribute, bool) {
	a, ok := g.byName[record.NormalizeName(name)]
	return a, ok
}

// AddAttribute keys the new attribute by the normalized form of the name it
// gives it, and maps a source attribute onto the attribute it finds. Both
// are deliberate changes from the code as it stood, which keyed by the
// source attribute's normalized name: "ſhow" then made an attribute named
// SHOW that a lookup of SHOW missed, and "show" a second one.
func (g *refGlobal) AddAttribute(src *schema.Attribute, source string) *schema.Attribute {
	name := strings.ToUpper(record.NormalizeName(src.Name))
	key := record.NormalizeName(name)
	if a, ok := g.byName[key]; ok {
		g.mergeInto(a, src, source)
		g.recordMapping(source, src.Name, a.Name)
		return a
	}
	a := &schema.Attribute{
		Name:    name,
		Kind:    src.Kind,
		Samples: append([]string(nil), src.Samples...),
		Sources: []string{source},
	}
	g.byName[key] = a
	g.attrs = append(g.attrs, a)
	g.recordMapping(source, src.Name, a.Name)
	return a
}

func (g *refGlobal) MapAttribute(src *schema.Attribute, source string, global *schema.Attribute) error {
	if _, ok := g.byName[record.NormalizeName(global.Name)]; !ok {
		return fmt.Errorf("schema: global attribute %q not in schema", global.Name)
	}
	g.mergeInto(global, src, source)
	g.recordMapping(source, src.Name, global.Name)
	return nil
}

func (g *refGlobal) recordMapping(source, attr, global string) {
	key := refSourceAttr{source, record.NormalizeName(attr)}
	if !slices.Contains(g.mapped[key], global) {
		g.mapped[key] = append(g.mapped[key], global)
	}
}

func (g *refGlobal) mergeInto(dst, src *schema.Attribute, source string) {
	seen := map[string]bool{}
	for _, s := range dst.Samples {
		seen[s] = true
	}
	for _, s := range src.Samples {
		if !seen[s] && len(dst.Samples) < 64 {
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

func (g *refGlobal) mappingFor(key refSourceAttr) (string, bool) {
	if targets := g.mapped[key]; len(targets) > 0 {
		return targets[0], true
	}
	return "", false
}

func (g *refGlobal) Translate(r *record.Record) *record.Record {
	return g.translate(r, nil)
}

func (g *refGlobal) TranslateAll(recs []*record.Record) []*record.Record {
	resolved := map[refSourceAttr]string{}
	out := make([]*record.Record, len(recs))
	for i, r := range recs {
		out[i] = g.translate(r, resolved)
	}
	return out
}

func (g *refGlobal) translate(r *record.Record, resolved map[refSourceAttr]string) *record.Record {
	out := record.NewCap(r.Len())
	out.Source = r.Source
	out.ID = r.ID
	for _, f := range r.Fields() {
		raw := refSourceAttr{r.Source, f.Name}
		name, ok := resolved[raw]
		if !ok {
			name = f.Name
			if global, ok := g.mappingFor(refSourceAttr{r.Source, record.NormalizeName(f.Name)}); ok {
				name = global
			}
			if resolved != nil {
				resolved[raw] = name
			}
		}
		out.Set(name, f.Value)
	}
	return out
}

func refFromSource(s *ingest.Source) *schema.SourceSchema {
	type profile struct {
		kinds [record.KindTime + 1]int
		seen  map[string]bool
	}
	ss := &schema.SourceSchema{Source: s.Name}
	var profiles []profile     // parallel to ss.Attrs
	byKey := map[string]int{}  // normalized name -> attribute
	byName := map[string]int{} // field name as spelled -> attribute
	for _, r := range s.Records {
		for _, f := range r.Fields() {
			i, ok := byName[f.Name]
			if !ok {
				key := record.NormalizeName(f.Name)
				if i, ok = byKey[key]; !ok {
					i = len(ss.Attrs)
					byKey[key] = i
					ss.Attrs = append(ss.Attrs, &schema.Attribute{Name: f.Name, Sources: []string{s.Name}})
					profiles = append(profiles, profile{seen: map[string]bool{}})
				}
				byName[f.Name] = i
			}
			if f.Value.IsNull() {
				continue
			}
			p, attr := &profiles[i], ss.Attrs[i]
			p.kinds[f.Value.Kind()]++
			if len(attr.Samples) < 64 {
				if sv := f.Value.Str(); !p.seen[sv] {
					p.seen[sv] = true
					attr.Samples = append(attr.Samples, sv)
				}
			}
		}
	}
	for i, attr := range ss.Attrs {
		attr.Kind = record.KindString
		for k, best := record.KindString, 0; k <= record.KindTime; k++ {
			if n := profiles[i].kinds[k]; n > best {
				attr.Kind, best = k, n
			}
		}
	}
	return ss
}

// refNameScore is NameMatcher.Score as it stood.
func refNameScore(m *match.NameMatcher, src, dst *schema.Attribute) float64 {
	a := record.NormalizeName(src.Name)
	b := record.NormalizeName(dst.Name)
	if a == b {
		return 1
	}
	if m.Dict != nil && m.Dict.AreSynonyms(a, b) {
		return 0.95
	}
	at := refNameTokens(a, m.Dict)
	bt := refNameTokens(b, m.Dict)
	tok := refJaccardStrings(at, bt)
	jw := refJaroWinkler(a, b)
	score := 0.6*tok + 0.4*jw
	if score > 1 {
		score = 1
	}
	return score
}

func refNameTokens(name string, dict *synonym.Dict) []string {
	var buf [8]textutil.Token
	tokens := textutil.AppendTokens(buf[:0], name)
	out := make([]string, len(tokens))
	for i, t := range tokens {
		w := t.Text
		if dict != nil {
			w = dict.Canonical(w)
		}
		out[i] = w
	}
	return out
}

// refJaccardStrings is the token-set Jaccard coefficient over two maps.
func refJaccardStrings(a, b []string) float64 {
	sa, sb := map[string]bool{}, map[string]bool{}
	for _, t := range a {
		sa[t] = true
	}
	for _, t := range b {
		sb[t] = true
	}
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	inter := 0
	for t := range sa {
		if sb[t] {
			inter++
		}
	}
	return float64(inter) / float64(len(sa)+len(sb)-inter)
}

func refJaroWinkler(a, b string) float64 {
	var s similarity.Scratch
	return s.JaroWinkler([]rune(a), []rune(b))
}

// refScore is DefaultComposite's Score over refNameScore.
func refScore(names *match.NameMatcher, src, dst *schema.Attribute) float64 {
	parts := []struct {
		score  float64
		weight float64
	}{
		{refNameScore(names, src, dst), 0.55},
		{match.ValueMatcher{}.Score(src, dst), 0.25},
		{match.TypeMatcher{}.Score(src, dst), 0.20},
	}
	var sum, wsum float64
	for _, p := range parts {
		sum += p.weight * p.score
		wsum += p.weight
	}
	return sum / wsum
}

func refMatchSource(e *match.Engine, ss *schema.SourceSchema, g *refGlobal) *match.Report {
	rep := &match.Report{Source: ss.Source}
	names := match.NewNameMatcher()
	topK := match.TopK
	for _, attr := range ss.Attrs {
		am := match.AttrMatch{Attr: attr}
		for _, target := range g.Attributes() {
			score := refScore(names, attr, target)
			am.Suggestions = append(am.Suggestions, match.Suggestion{Target: target.Name, Score: score})
		}
		sort.SliceStable(am.Suggestions, func(i, j int) bool {
			if am.Suggestions[i].Score != am.Suggestions[j].Score {
				return am.Suggestions[i].Score > am.Suggestions[j].Score
			}
			return am.Suggestions[i].Target < am.Suggestions[j].Target
		})
		if len(am.Suggestions) > topK {
			am.Suggestions = am.Suggestions[:topK]
		}
		best := am.Best()
		switch {
		case best.Score >= e.AcceptThreshold:
			am.Decision = match.DecisionAccept
		case best.Score >= e.NewThreshold:
			am.Decision = match.DecisionReview
		default:
			am.Decision = match.DecisionNew
			rep.Alerts = append(rep.Alerts, fmt.Sprintf(
				"field %q has no counterpart in the global schema yet (best score %.2f); suggested actions: add to global schema, ignore",
				attr.Name, best.Score))
		}
		rep.Matches = append(rep.Matches, am)
	}
	return rep
}

func refIntegrate(rep *match.Report, g *refGlobal) (review []match.AttrMatch, err error) {
	for _, m := range rep.Matches {
		switch m.Decision {
		case match.DecisionAccept:
			target, ok := g.Attribute(m.Best().Target)
			if !ok {
				return nil, fmt.Errorf("match: accepted target %q missing from global schema", m.Best().Target)
			}
			if mapErr := g.MapAttribute(m.Attr, rep.Source, target); mapErr != nil {
				return nil, mapErr
			}
		case match.DecisionNew:
			g.AddAttribute(m.Attr, rep.Source)
		case match.DecisionReview:
			review = append(review, m)
		}
	}
	return review, nil
}

// integrator is what resolveReview needs of either global schema.
type integrator interface {
	Attribute(name string) (*schema.Attribute, bool)
	AddAttribute(src *schema.Attribute, source string) *schema.Attribute
	MapAttribute(src *schema.Attribute, source string, global *schema.Attribute) error
}

// resolveReview settles review-band matches the way the pipeline's simulated
// experts do: map onto the best target when its score clears the middle of
// the band, add the attribute otherwise.
func resolveReview(e *match.Engine, g integrator, source string, review []match.AttrMatch) error {
	mid := (e.AcceptThreshold + e.NewThreshold) / 2
	for _, m := range review {
		if target, ok := g.Attribute(m.Best().Target); ok && m.Best().Score >= mid {
			if err := g.MapAttribute(m.Attr, source, target); err != nil {
				return err
			}
			continue
		}
		g.AddAttribute(m.Attr, source)
	}
	return nil
}

// integration runs one side, the new code or the reference, over a
// sequence of source batches.
type integration struct {
	engine *match.Engine
	global *schema.Global
	ref    *refGlobal
}

// step integrates one batch and translates it, returning the report, the
// records TranslateAll built, those Translate built and the error.
func (in *integration) step(src *ingest.Source) (rep *match.Report, all, each []*record.Record, err error) {
	var review []match.AttrMatch
	var g integrator
	if in.ref != nil {
		g = in.ref
		rep = refMatchSource(in.engine, refFromSource(src), in.ref)
		review, err = refIntegrate(rep, in.ref)
	} else {
		g = in.global
		rep = in.engine.MatchSource(schema.FromSource(src), in.global)
		review, err = in.engine.Integrate(rep, in.global)
	}
	if err == nil {
		err = resolveReview(in.engine, g, src.Name, review)
	}
	if in.ref != nil {
		all = in.ref.TranslateAll(src.Records)
		for _, r := range src.Records {
			each = append(each, in.ref.Translate(r))
		}
	} else {
		all = in.global.TranslateAll(src.Records)
		for _, r := range src.Records {
			each = append(each, in.global.Translate(r))
		}
	}
	return rep, all, each, err
}

func sameAttribute(a, b *schema.Attribute) bool {
	return a.Name == b.Name && a.Kind == b.Kind && slices.Equal(a.Samples, b.Samples) && slices.Equal(a.Sources, b.Sources)
}

func describe(a *schema.Attribute) string {
	return fmt.Sprintf("%q %v samples %q sources %q", a.Name, a.Kind, a.Samples, a.Sources)
}

// firstDifference is the index of the first record a and b disagree on, or
// -1.
func firstDifference(a, b []*record.Record) int {
	for i := range max(len(a), len(b)) {
		if i >= len(a) || i >= len(b) || a[i].Source != b[i].Source || a[i].ID != b[i].ID || !slices.Equal(a[i].Fields(), b[i].Fields()) {
			return i
		}
	}
	return -1
}

// compareStep fails t where the new side's step differs from the
// reference's in any bit.
func compareStep(t *testing.T, label string, got, want *integration, src *ingest.Source) {
	t.Helper()
	rep, all, each, err := got.step(src)
	wantRep, wantAll, wantEach, wantErr := want.step(src)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, reference %v", label, err, wantErr)
	}
	if rep.Source != wantRep.Source || len(rep.Matches) != len(wantRep.Matches) || !slices.Equal(rep.Alerts, wantRep.Alerts) {
		t.Fatalf("%s: report %s %d matches alerts %q, reference %s %d matches alerts %q",
			label, rep.Source, len(rep.Matches), rep.Alerts, wantRep.Source, len(wantRep.Matches), wantRep.Alerts)
	}
	for i, m := range rep.Matches {
		w := wantRep.Matches[i]
		same := sameAttribute(m.Attr, w.Attr) && m.Decision == w.Decision &&
			slices.EqualFunc(m.Suggestions, w.Suggestions, func(a, b match.Suggestion) bool {
				return a.Target == b.Target && math.Float64bits(a.Score) == math.Float64bits(b.Score)
			}) && (m.Suggestions == nil) == (w.Suggestions == nil)
		if !same {
			t.Fatalf("%s: match %d: %s %v %v, reference %s %v %v",
				label, i, describe(m.Attr), m.Decision, m.Suggestions, describe(w.Attr), w.Decision, w.Suggestions)
		}
	}
	attrs, wantAttrs := got.global.Attributes(), want.ref.Attributes()
	if !slices.EqualFunc(attrs, wantAttrs, sameAttribute) {
		for i := range max(len(attrs), len(wantAttrs)) {
			if i >= len(attrs) || i >= len(wantAttrs) || !sameAttribute(attrs[i], wantAttrs[i]) {
				t.Fatalf("%s: global attribute %d differs (%d against %d attributes)", label, i, len(attrs), len(wantAttrs))
			}
		}
	}
	mappings := schema.Mappings(got.global)
	if len(mappings) != len(want.ref.mapped) {
		t.Fatalf("%s: %d mapped source attributes, reference %d", label, len(mappings), len(want.ref.mapped))
	}
	for k, targets := range want.ref.mapped {
		if got := mappings[[2]string{k.source, k.attr}]; !slices.Equal(got, targets) {
			t.Fatalf("%s: %s.%s maps to %q, reference %q", label, k.source, k.attr, got, targets)
		}
	}
	if i := firstDifference(all, wantAll); i >= 0 {
		t.Fatalf("%s: TranslateAll of record %d is %v, reference %v", label, i, all[i], wantAll[i])
	}
	if i := firstDifference(each, wantEach); i >= 0 {
		t.Fatalf("%s: Translate of record %d is %v, reference %v", label, i, each[i], wantEach[i])
	}
}

func newSides() (got, want *integration) {
	e := match.NewEngine()
	return &integration{engine: e, global: schema.NewGlobal()}, &integration{engine: e, ref: newRefGlobal()}
}

// The generated FTABLES sources, integrated in order, as the pipeline does.
func TestSchemaIntegrationMatchesReferenceOnFTables(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		got, want := newSides()
		for _, src := range datagen.GenerateFTables(datagen.FTablesConfig{Sources: 20, Seed: seed}) {
			compareStep(t, fmt.Sprintf("seed %d %s", seed, src.Name), got, want, src)
		}
	}
}

// fuzzNames spell attributes alike and not: case and separators, synonyms,
// a name whose upper case normalizes to another's ("ſhow" to "show"), an
// accented one and an empty one.
var fuzzNames = []string{
	"Phone", "PHONE", "box-office.phone", "telephone", "Show", "show name", "SHOW_NAME", "Title",
	"Théâtre", "THEATER", "venue", "", "Price", "cost", "Ticket Price", "ſhow", " notes ",
}

// fuzzValue is a column's value in a row: nulls, strings, numbers and, for
// one selector, a value per row, so a wide batch has more than 64 distinct
// samples.
func fuzzValue(sel byte, row int) record.Value {
	switch sel % 9 {
	case 0:
		return record.Null
	case 1:
		return record.String("Matilda")
	case 2:
		return record.String("Wicked")
	case 3:
		return record.Int(27)
	case 4:
		return record.Float(27.5)
	case 5:
		return record.String("27")
	case 6:
		return record.String("n/a")
	case 7:
		return record.Bool(true)
	default:
		return record.String(fmt.Sprintf("v%d", row))
	}
}

// fuzzSources reads a sequence of batches out of data. A record is built
// field by field as the bytes say, so one record may hold two spellings
// that normalize alike.
func fuzzSources(data []byte) (batches []*ingest.Source) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	next() // the byte that chose the engine's top K, skipped so the seeds read as written
	for steps := 1 + int(next()%5); steps > 0; steps-- {
		src := &ingest.Source{Name: fmt.Sprintf("ft%d", next()%3)}
		shape := make([]string, next()%5)
		sels := make([]byte, len(shape))
		for i := range shape {
			shape[i], sels[i] = fuzzNames[int(next())%len(fuzzNames)], next()
		}
		rows := int(next())
		if rows&0x80 != 0 {
			rows = 64 + rows%8
		} else {
			rows %= 6
		}
		for row := range rows {
			r := record.NewCap(len(shape))
			r.Source, r.ID = src.Name, fmt.Sprint(row)
			variant := next()
			for i, name := range shape {
				if variant%4 == 1 { // the fields in reverse
					i = len(shape) - 1 - i
					name = shape[i]
				}
				if variant%4 == 2 && i == 0 { // the first field left out
					continue
				}
				r.Append(name, fuzzValue(sels[i]+variant/4, row))
			}
			src.Records = append(src.Records, r)
		}
		batches = append(batches, src)
	}
	return batches
}

func FuzzSchemaIntegrationMatchesReference(f *testing.F) {
	// Two sources spelling one attribute apart, then again with nulls.
	f.Add([]byte{2, 3, 0, 2, 0, 1, 4, 3, 3, 0, 1, 1, 5, 0, 2, 2, 1, 0, 2, 0, 2})
	// A wide batch: more than 64 distinct samples in one column.
	f.Add([]byte{0, 1, 1, 2, 12, 8, 14, 3, 0x81})
	// Two fields of one record mapped onto one global attribute.
	f.Add([]byte{3, 2, 0, 2, 0, 1, 3, 1, 3, 1, 2, 0, 3, 4, 1, 3, 2, 2, 1, 1, 1, 0, 0})
	// "ſhow" beside a spelling that normalizes like its upper case.
	f.Add([]byte("000910701"))
	rng := rand.New(rand.NewSource(1))
	for range 8 {
		seed := make([]byte, 40+rng.Intn(80))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, want := newSides()
		for i, src := range fuzzSources(data) {
			compareStep(t, fmt.Sprintf("batch %d %s", i, src.Name), got, want, src)
		}
	})
}
