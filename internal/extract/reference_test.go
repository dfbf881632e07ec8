package extract

import (
	"bytes"
	"maps"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/textutil"
)

// The parser as it was before it tokenized into pooled scratch and scanned
// bytes in place of regexps, verbatim but for names: the oracle Parse,
// InstanceDoc and EntityDocs are compared with. It reads the gazetteer of
// the parser under test and the expressions of patterns_test.go.

type refPattern struct {
	Type Type
	Attr string
	Re   *regexp.Regexp
}

func refDefaultPatterns() []refPattern {
	return []refPattern{
		{Type: URL, Re: urlRe},
		{Type: "", Attr: "schedule", Re: scheduleRe},
		{Type: "", Attr: "price", Re: priceRe},
		{Type: "", Attr: "gross", Re: moneyRe},
		{Type: "", Attr: "date", Re: dateRe},
		{Type: "", Attr: "percent", Re: percentRe},
	}
}

type refEntity struct {
	Type       Type
	Name       string
	Attributes map[string]string
}

type refResult struct {
	Text     string
	Mentions []Mention
	Entities []refEntity
}

type refParser struct {
	gaz      *Gazetteer
	patterns []refPattern
}

func (p *refParser) Parse(text string) *refResult {
	res := &refResult{Text: text}
	res.Mentions = p.matchGazetteer(text)
	res.Mentions = append(res.Mentions, p.matchPatterns(text)...)
	sort.Slice(res.Mentions, func(i, j int) bool {
		if res.Mentions[i].Start != res.Mentions[j].Start {
			return res.Mentions[i].Start < res.Mentions[j].Start
		}
		return res.Mentions[i].End > res.Mentions[j].End
	})
	res.Entities = p.entitiesOf(text, res.Mentions)
	return res
}

func (p *refParser) matchGazetteer(text string) []Mention {
	tokens := textutil.AppendTokens(nil, text)
	lower := make([]string, len(tokens))
	for i, t := range tokens {
		lower[i] = strings.ToLower(t.Text)
	}
	var mentions []Mention
	i := 0
	for i < len(tokens) {
		matched := 0
		var matchType Type
		var matchName string
		for _, phrase := range p.gaz.firstTok[lower[i]] {
			ptoks := phrase.toks
			if len(ptoks) <= matched || i+len(ptoks) > len(tokens) {
				continue
			}
			ok := true
			for j, pt := range ptoks {
				if lower[i+j] != pt {
					ok = false
					break
				}
			}
			if ok {
				matched = len(ptoks)
				matchType = phrase.typ
				matchName = text[tokens[i].Start:tokens[i+matched-1].End]
			}
		}
		if matched > 0 {
			mentions = append(mentions, Mention{
				Type:  matchType,
				Name:  matchName,
				Start: tokens[i].Start,
				End:   tokens[i+matched-1].End,
			})
			i += matched
			continue
		}
		i++
	}
	return mentions
}

func (p *refParser) matchPatterns(text string) []Mention {
	var mentions []Mention
	for _, pat := range p.patterns {
		if pat.Type == "" {
			continue
		}
		for _, loc := range pat.Re.FindAllStringIndex(text, -1) {
			mentions = append(mentions, Mention{
				Type:  pat.Type,
				Name:  text[loc[0]:loc[1]],
				Start: loc[0],
				End:   loc[1],
			})
		}
	}
	return mentions
}

func (p *refParser) entitiesOf(text string, mentions []Mention) []refEntity {
	attrs := map[string]string{}
	for _, pat := range p.patterns {
		if pat.Attr == "" {
			continue
		}
		if loc := pat.Re.FindStringIndex(text); loc != nil {
			attrs[pat.Attr] = text[loc[0]:loc[1]]
		}
	}
	seen := map[string]int{}
	var entities []refEntity
	for _, m := range mentions {
		key := string(m.Type) + "\x00" + strings.ToLower(m.Name)
		if _, ok := seen[key]; ok {
			continue
		}
		seen[key] = len(entities)
		ent := refEntity{Type: m.Type, Name: m.Name, Attributes: map[string]string{}}
		for k, v := range attrs {
			ent.Attributes[k] = v
		}
		if m.Type == Movie && p.gaz.awards[gazNorm(m.Name)] {
			ent.Attributes["award_winning"] = "true"
		}
		entities = append(entities, ent)
	}
	return entities
}

func (r *refResult) InstanceDoc(sourceURL string) *store.Doc {
	ents := make([]store.DocValue, 0, len(r.Entities))
	for _, e := range r.Entities {
		ents = append(ents, store.Nested(store.NewDoc(
			store.F("type", store.Str(string(e.Type))),
			store.F("name", store.Str(e.Name)))))
	}
	return store.NewDoc(
		store.F("source_url", store.Str(sourceURL)),
		store.F("text", store.Str(r.Text)),
		store.F("entities", store.List(ents...)))
}

func (r *refResult) EntityDocs(sourceURL string) []*store.Doc {
	out := make([]*store.Doc, 0, len(r.Entities))
	for _, e := range r.Entities {
		fields := []store.Field{
			store.F("type", store.Str(string(e.Type))),
			store.F("name", store.Str(e.Name)),
			store.F("source_url", store.Str(sourceURL)),
		}
		if len(e.Attributes) > 0 {
			keys := make([]string, 0, len(e.Attributes))
			for k := range e.Attributes {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			attrs := make([]store.Field, len(keys))
			for i, k := range keys {
				attrs[i] = store.F(k, store.Str(e.Attributes[k]))
			}
			fields = append(fields, store.F("attributes", store.Nested(store.NewDoc(attrs...))))
		}
		out = append(out, store.NewDoc(fields...))
	}
	return out
}

// CheckParseMatchesReference fails t unless p.Parse(text) finds the
// reference's mentions, entities and attributes, and its documents encode
// to the reference's bytes. It is exported for the datagen-driven test,
// which lives in package extract_test because datagen imports extract.
func CheckParseMatchesReference(t testing.TB, p *Parser, text string) {
	t.Helper()
	const url = "http://example.com/fragment"
	got := p.Parse(text)
	want := (&refParser{gaz: p.gaz, patterns: refDefaultPatterns()}).Parse(text)
	if !slices.Equal(got.Mentions, want.Mentions) {
		t.Fatalf("Parse(%q) mentions %v, reference %v", text, got.Mentions, want.Mentions)
	}
	if len(got.Entities) != len(want.Entities) {
		t.Fatalf("Parse(%q) has %d entities, reference %d", text, len(got.Entities), len(want.Entities))
	}
	for i, e := range got.Entities {
		w := want.Entities[i]
		attrs := map[string]string{}
		for _, a := range e.Attributes {
			attrs[a.Key] = a.Value
		}
		sorted := slices.IsSortedFunc(e.Attributes, func(a, b Attr) int { return strings.Compare(a.Key, b.Key) })
		if e.Type != w.Type || e.Name != w.Name || !maps.Equal(attrs, w.Attributes) || len(attrs) != len(e.Attributes) || !sorted {
			t.Fatalf("Parse(%q) entity %d = %+v, reference %+v", text, i, e, w)
		}
	}
	if g, w := store.EncodeDoc(got.InstanceDoc(url)), store.EncodeDoc(want.InstanceDoc(url)); !bytes.Equal(g, w) {
		t.Fatalf("Parse(%q): InstanceDoc encodes to %q, reference %q", text, g, w)
	}
	gotDocs, wantDocs := got.EntityDocs(url), want.EntityDocs(url)
	for i := range wantDocs {
		if g, w := store.EncodeDoc(gotDocs[i]), store.EncodeDoc(wantDocs[i]); !bytes.Equal(g, w) {
			t.Fatalf("Parse(%q): EntityDocs[%d] encodes to %q, reference %q", text, i, g, w)
		}
	}
	CheckAppendDocsMatchesPutDoc(t, p, text, url)
}

// CheckAppendDocsMatchesPutDoc fails t unless the bytes AppendDocs writes
// for text, behind bytes already in its buffer, are what PutDoc writes for
// InstanceDoc and each of EntityDocs of Parse(text), each ending where it
// says, and adopt as stored documents that read back the same.
func CheckAppendDocsMatchesPutDoc(t testing.TB, p *Parser, text, url string) {
	t.Helper()
	res := p.Parse(text)
	want := []*store.Doc{res.InstanceDoc(url)}
	want = append(want, res.EntityDocs(url)...)
	prefix := []byte("left by an earlier fragment")
	buf, ends := p.AppendDocs(slices.Clone(prefix), []int{len(prefix)}, text, url)
	if len(ends) != 1+len(want) || !bytes.Equal(buf[:len(prefix)], prefix) {
		t.Fatalf("AppendDocs(%q) wrote %d documents, want %d", text, len(ends)-1, len(want))
	}
	rel := make([]int, len(want))
	for i := range rel {
		rel[i] = ends[1+i] - len(prefix)
	}
	docs, err := store.AdoptDocs(buf[len(prefix):], rel)
	if err != nil {
		t.Fatalf("AppendDocs(%q): %v", text, err)
	}
	for i, w := range want {
		enc := store.EncodeDoc(w)
		if g := buf[ends[i]:ends[i+1]]; !bytes.Equal(g, enc) {
			t.Fatalf("AppendDocs(%q): document %d is %q, PutDoc writes %q", text, i, g, enc)
		}
		if g := store.EncodeDoc(&docs[i]); !bytes.Equal(g, enc) || docs[i].String() != w.String() {
			t.Fatalf("AppendDocs(%q): document %d adopts as %v, want %v", text, i, &docs[i], w)
		}
	}
}

// parseSeeds are fragments a datagen corpus does not hold: folds, odd
// boundaries, repeats that fold together, and bytes that are not UTF-8.
var parseSeeds = []string{
	"",
	"Matilda was great. MATILDA again! And Wicked too, at www.wicked.example.com and http://x.example.org/a?b=c.",
	"ſat at 5pm", "Tues at 7PM", "1,2345", "3/4/20131", "İ", "ÀB",
	"The Walking Dead, the  walking  dead and THE WALKING DEAD: $27.50 on 2013-03-04, 93 percent.",
	"İstanbul and New York and new york; Chicago the city, Chicago the show.",
	"Goodfellas \xff Raging Bull\xc5 at Sat\u212a at 11:30am 1,234,567.89",
}

func FuzzParseMatchesReference(f *testing.F) {
	for _, text := range parseSeeds {
		f.Add(text)
	}
	p := NewParser()
	f.Fuzz(func(t *testing.T, text string) { CheckParseMatchesReference(t, p, text) })
}
