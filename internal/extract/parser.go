package extract

import (
	"sort"
	"strings"

	"repro/internal/store"
	"repro/internal/textutil"
)

// Parser is the domain-specific parser: gazetteer phrase matching plus
// surface patterns. It is the user-defined module of Figure 1; its output is
// the hierarchical WEBINSTANCE and WEBENTITIES documents the store holds.
type Parser struct {
	gaz      *Gazetteer
	patterns []Pattern
}

// NewParser returns a parser over the given gazetteer and patterns; nil
// arguments select the defaults.
func NewParser(gaz *Gazetteer, patterns []Pattern) *Parser {
	if gaz == nil {
		gaz = DefaultGazetteer()
	}
	if patterns == nil {
		patterns = DefaultPatterns()
	}
	return &Parser{gaz: gaz, patterns: patterns}
}

// Gazetteer exposes the parser's gazetteer.
func (p *Parser) Gazetteer() *Gazetteer { return p.gaz }

// Parse extracts mentions and entities from one text fragment.
func (p *Parser) Parse(text string) *Result {
	res := &Result{Text: text}
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

// matchGazetteer scans token spans longest-match-first against the
// gazetteer. Overlapping shorter matches are suppressed.
func (p *Parser) matchGazetteer(text string) []Mention {
	tokens := textutil.Tokenize(text)
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

func (p *Parser) matchPatterns(text string) []Mention {
	var mentions []Mention
	for _, pat := range p.patterns {
		if pat.Type == "" {
			continue // attribute patterns handled in entitiesOf
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

// entitiesOf folds mentions into distinct entities and attaches attribute
// pattern matches (price, gross, date, schedule) found in the same fragment.
func (p *Parser) entitiesOf(text string, mentions []Mention) []Entity {
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
	var entities []Entity
	for _, m := range mentions {
		key := string(m.Type) + "\x00" + strings.ToLower(m.Name)
		if idx, ok := seen[key]; ok {
			_ = idx
			continue
		}
		seen[key] = len(entities)
		ent := Entity{Type: m.Type, Name: m.Name, Attributes: map[string]string{}}
		for k, v := range attrs {
			ent.Attributes[k] = v
		}
		if m.Type == Movie && p.gaz.IsAward(m.Name) {
			ent.Attributes["award_winning"] = "true"
		}
		entities = append(entities, ent)
	}
	return entities
}

// InstanceDoc converts a parse result into the hierarchical WEBINSTANCE
// document: the text fragment plus the nested list of entity references.
// sourceURL identifies where the fragment was crawled from.
func (r *Result) InstanceDoc(sourceURL string) *store.Doc {
	d := store.NewDocCap(3).
		Set("source_url", store.Str(sourceURL)).
		Set("text", store.Str(r.Text))
	ents := make([]store.DocValue, 0, len(r.Entities))
	for _, e := range r.Entities {
		ed := store.NewDocCap(2).
			Set("type", store.Str(string(e.Type))).
			Set("name", store.Str(e.Name))
		ents = append(ents, store.Nested(ed))
	}
	d.Set("entities", store.List(ents...))
	return d
}

// EntityDocs converts a parse result into WEBENTITIES documents: one
// hierarchical document per distinct entity with its attributes nested.
func (r *Result) EntityDocs(sourceURL string) []*store.Doc {
	out := make([]*store.Doc, 0, len(r.Entities))
	for _, e := range r.Entities {
		d := store.NewDocCap(4).
			Set("type", store.Str(string(e.Type))).
			Set("name", store.Str(e.Name)).
			Set("source_url", store.Str(sourceURL))
		if len(e.Attributes) > 0 {
			ad := store.NewDocCap(len(e.Attributes))
			keys := make([]string, 0, len(e.Attributes))
			for k := range e.Attributes {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				ad.Set(k, store.Str(e.Attributes[k]))
			}
			d.Set("attributes", store.Nested(ad))
		}
		out = append(out, d)
	}
	return out
}
