package extract

import (
	"bytes"
	"cmp"
	"slices"
	"strings"
	"sync"

	"repro/internal/store"
	"repro/internal/textutil"
)

// Parser is the domain-specific parser: gazetteer phrase matching plus
// surface patterns. It is the user-defined module of Figure 1; its output is
// the hierarchical WEBINSTANCE and WEBENTITIES documents the store holds.
// It is safe for concurrent use.
type Parser struct {
	gaz *Gazetteer
}

// NewParser returns a parser over the default gazetteer and the surface
// patterns of patterns.go.
func NewParser() *Parser { return &Parser{gaz: DefaultGazetteer()} }

// Gazetteer exposes the parser's gazetteer.
func (p *Parser) Gazetteer() *Gazetteer { return p.gaz }

// scratch is one Parse call's working memory, pooled so that a parse
// allocates only what its Result holds.
type scratch struct {
	toks     []textutil.Token
	lower    []byte // lowered bytes, back to back: of toks, then of mention names
	spans    []span // one per token, then one per mention, into lower
	mentions []Mention
	order    []int  // mention indexes, sorted by entity identity
	first    []bool // per mention: the first of its entity
	entities []Entity
	attrs    []Attr // the entities' shared attribute list
}

// span is the byte range [lo, hi) of one lowered string in scratch.lower.
type span struct{ lo, hi int }

// appendLower lowers str onto s.lower and records its span.
func (s *scratch) appendLower(str string) {
	lo := len(s.lower)
	s.lower = textutil.AppendLower(s.lower, str)
	s.spans = append(s.spans, span{lo, len(s.lower)})
}

// low returns the i'th recorded lowered string.
func (s *scratch) low(i int) []byte { return s.lower[s.spans[i].lo:s.spans[i].hi] }

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Parse extracts mentions and entities from one text fragment.
func (p *Parser) Parse(text string) *Result {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	p.findMentions(s, text)
	res := &Result{Text: text}
	if len(s.mentions) > 0 {
		res.Mentions = slices.Clone(s.mentions)
	}
	res.Entities, _ = p.entitiesOf(s, text, res.Mentions, nil, nil)
	return res
}

// AppendDocs parses one text fragment crawled from sourceURL and appends
// to dst its WEBINSTANCE document's encoding, then each WEBENTITIES
// document's, and to ends where each of them ends: the bytes PutDoc writes
// for InstanceDoc and for each of EntityDocs, written straight from the
// parse's pooled scratch, with no Result and no Doc between.
// store.AdoptDocs(dst, ends) turns them into stored documents.
func (p *Parser) AppendDocs(dst []byte, ends []int, text, sourceURL string) ([]byte, []int) {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	p.findMentions(s, text)
	s.entities, s.attrs = p.entitiesOf(s, text, s.mentions, s.entities[:0], s.attrs[:0])
	dst = store.AppendDocHead(dst, 3)
	dst = store.AppendStrField(dst, "source_url", sourceURL)
	dst = store.AppendStrField(dst, "text", text)
	dst = store.AppendListField(dst, "entities", len(s.entities))
	for _, e := range s.entities {
		dst = store.AppendDocElem(dst, 2)
		dst = store.AppendStrField(dst, "type", string(e.Type))
		dst = store.AppendStrField(dst, "name", e.Name)
	}
	ends = append(ends, len(dst))
	for _, e := range s.entities {
		n := 3
		if len(e.Attributes) > 0 {
			n++
		}
		dst = store.AppendDocHead(dst, n)
		dst = store.AppendStrField(dst, "type", string(e.Type))
		dst = store.AppendStrField(dst, "name", e.Name)
		dst = store.AppendStrField(dst, "source_url", sourceURL)
		if len(e.Attributes) > 0 {
			dst = store.AppendDocField(dst, "attributes", len(e.Attributes))
			for _, a := range e.Attributes {
				dst = store.AppendStrField(dst, a.Key, a.Value)
			}
		}
		ends = append(ends, len(dst))
	}
	return dst, ends
}

// findMentions leaves in s.mentions every mention in text, in order of
// position, the longer first where two start together.
func (p *Parser) findMentions(s *scratch, text string) {
	s.mentions = p.appendGazetteer(s, s.mentions[:0], text)
	s.mentions = appendURLs(s.mentions, text)
	slices.SortFunc(s.mentions, func(a, b Mention) int {
		if a.Start != b.Start {
			return cmp.Compare(a.Start, b.Start)
		}
		return cmp.Compare(b.End, a.End)
	})
}

// appendGazetteer scans token spans longest-match-first against the
// gazetteer and appends the matches to dst. Overlapping shorter matches are
// suppressed.
func (p *Parser) appendGazetteer(s *scratch, dst []Mention, text string) []Mention {
	s.toks = textutil.AppendTokens(s.toks[:0], text)
	s.lower, s.spans = s.lower[:0], s.spans[:0]
	for _, t := range s.toks {
		s.appendLower(t.Text)
	}
	tokens := s.toks
	i := 0
	for i < len(tokens) {
		matched := 0
		var matchType Type
		for _, phrase := range p.gaz.firstTok[string(s.low(i))] {
			ptoks := phrase.toks
			if len(ptoks) <= matched || i+len(ptoks) > len(tokens) {
				continue
			}
			ok := true
			for j, pt := range ptoks {
				if string(s.low(i+j)) != pt {
					ok = false
					break
				}
			}
			if ok {
				matched = len(ptoks)
				matchType = phrase.typ
			}
		}
		if matched > 0 {
			start, end := tokens[i].Start, tokens[i+matched-1].End
			dst = append(dst, Mention{Type: matchType, Name: text[start:end], Start: start, End: end})
			i += matched
			continue
		}
		i++
	}
	return dst
}

// appendURLs appends every URL pattern match to dst.
func appendURLs(dst []Mention, text string) []Mention {
	for from := 0; ; {
		start, end := find(text, from, urlAt)
		if start < 0 {
			return dst
		}
		dst = append(dst, Mention{Type: URL, Name: text[start:end], Start: start, End: end})
		from = end
	}
}

// entitiesOf folds mentions into distinct entities — one per type and
// case-folded name, in the order of their first mention — and attaches
// the first match of each attribute pattern (date, gross, percent, price,
// schedule) found in the fragment. The entities are appended to ents and
// their attribute list to attrs, both empty, which it returns grown.
func (p *Parser) entitiesOf(s *scratch, text string, mentions []Mention, ents []Entity, attrs []Attr) ([]Entity, []Attr) {
	if len(mentions) == 0 {
		return ents, attrs
	}
	s.lower, s.spans = s.lower[:0], s.spans[:0]
	s.order = s.order[:0]
	for i, m := range mentions {
		s.appendLower(m.Name)
		s.order = append(s.order, i)
	}
	// Sorting by (type, lowered name, position) puts each entity's first
	// mention at the head of its run: no map, and n log n for any n.
	slices.SortFunc(s.order, func(a, b int) int {
		if c := strings.Compare(string(mentions[a].Type), string(mentions[b].Type)); c != 0 {
			return c
		}
		if c := bytes.Compare(s.low(a), s.low(b)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	s.first = append(s.first[:0], make([]bool, len(mentions))...)
	n := 0
	for k, i := range s.order {
		if k == 0 || mentions[i].Type != mentions[s.order[k-1]].Type || !bytes.Equal(s.low(i), s.low(s.order[k-1])) {
			s.first[i] = true
			n++
		}
	}

	// One key-sorted list serves every entity: award_winning sorts first, so
	// an award-winning movie takes all of it and any other entity the rest.
	attrs = append(slices.Grow(attrs, 1+len(attrPatterns)), Attr{Key: "award_winning", Value: "true"})
	for _, ap := range attrPatterns {
		if start, end := find(text, 0, ap.scan); start >= 0 {
			attrs = append(attrs, Attr{Key: ap.key, Value: text[start:end]})
		}
	}
	award, plain := attrs[:len(attrs):len(attrs)], attrs[1:len(attrs):len(attrs)]

	ents = slices.Grow(ents, n)
	for i, m := range mentions {
		if !s.first[i] {
			continue
		}
		ent := Entity{Type: m.Type, Name: m.Name, Attributes: plain}
		// The award set keyed by the lowered mention, without gazNorm's
		// copy: a gazetteer mention starts and ends with a letter or digit,
		// so trimming it changes nothing.
		if m.Type == Movie && p.gaz.awards[string(s.low(i))] {
			ent.Attributes = award
		}
		ents = append(ents, ent)
	}
	return ents, attrs
}

// InstanceDoc converts a parse result into the hierarchical WEBINSTANCE
// document: the text fragment plus the nested list of entity references.
// sourceURL identifies where the fragment was crawled from. The load writes
// the same document's bytes with AppendDocs; this reference document is
// what they are checked against.
func (r *Result) InstanceDoc(sourceURL string) *store.Doc {
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

// EntityDocs converts a parse result into WEBENTITIES documents: one
// hierarchical document per distinct entity with its attributes nested, in
// key order. Like InstanceDoc, it is the reference document AppendDocs's
// bytes are checked against.
func (r *Result) EntityDocs(sourceURL string) []*store.Doc {
	out := make([]*store.Doc, 0, len(r.Entities))
	for _, e := range r.Entities {
		fields := []store.Field{
			store.F("type", store.Str(string(e.Type))),
			store.F("name", store.Str(e.Name)),
			store.F("source_url", store.Str(sourceURL)),
		}
		if len(e.Attributes) > 0 {
			attrs := make([]store.Field, len(e.Attributes))
			for i, a := range e.Attributes {
				attrs[i] = store.F(a.Key, store.Str(a.Value))
			}
			fields = append(fields, store.F("attributes", store.Nested(store.NewDoc(attrs...))))
		}
		out = append(out, store.NewDoc(fields...))
	}
	return out
}
