package match

import (
	"fmt"
	"strings"

	"repro/internal/schema"
)

// Decision classifies what happens to a source attribute after matching.
type Decision int

// Decisions: automatic acceptance above the user threshold, expert review in
// the uncertain band, and "no counterpart yet" (Fig. 2's alert) below it.
const (
	DecisionAccept Decision = iota
	DecisionReview
	DecisionNew
)

// String names the decision.
func (d Decision) String() string {
	switch d {
	case DecisionAccept:
		return "accept"
	case DecisionReview:
		return "review"
	case DecisionNew:
		return "new-attribute"
	default:
		return fmt.Sprintf("decision(%d)", int(d))
	}
}

// Suggestion is one ranked matching target, as shown in Fig. 2's drop-down.
type Suggestion struct {
	Target string
	Score  float64
}

// AttrMatch is the matching outcome for one source attribute.
type AttrMatch struct {
	Attr        *schema.Attribute
	Suggestions []Suggestion // top-K targets, descending score
	Decision    Decision
}

// Best returns the top suggestion, or a zero Suggestion when none exist.
func (m AttrMatch) Best() Suggestion {
	if len(m.Suggestions) == 0 {
		return Suggestion{}
	}
	return m.Suggestions[0]
}

// Report is the outcome of matching one source against the global schema.
type Report struct {
	Source  string
	Matches []AttrMatch
	// Alerts carries the Fig. 2 "fields with no counterpart in the global
	// schema yet" messages.
	Alerts []string
}

// Engine runs schema matching with a configurable threshold policy.
type Engine struct {
	// Matcher scores attribute pairs (DefaultComposite if nil).
	Matcher Matcher
	// AcceptThreshold is the user-selected score at or above which a match
	// is accepted without review (Fig. 3's threshold picker). The default,
	// 0.75, accepts an exact name+type match even when value samples are
	// disjoint. Default 0.75.
	AcceptThreshold float64
	// NewThreshold is the score below which an attribute is considered to
	// have no counterpart. Default 0.45.
	NewThreshold float64
}

// TopK bounds an attribute's suggestion list.
const TopK = 3

// NewEngine returns an engine with default policy.
func NewEngine() *Engine {
	return &Engine{
		Matcher:         DefaultComposite(),
		AcceptThreshold: 0.75,
		NewThreshold:    0.45,
	}
}

func (e *Engine) matcher() Matcher {
	if e.Matcher == nil {
		return DefaultComposite()
	}
	return e.Matcher
}

// MatchSource scores every attribute of a source schema against every
// attribute of the global schema, classifying each by the threshold policy.
// Each attribute keeps its top K suggestions in a slice of K slots as the
// scores arrive, in the order of a stable sort of all of them by descending
// score and then ascending target.
func (e *Engine) MatchSource(ss *schema.SourceSchema, g *schema.Global) *Report {
	rep := &Report{Source: ss.Source}
	if len(ss.Attrs) > 0 {
		rep.Matches = make([]AttrMatch, 0, len(ss.Attrs))
	}
	m := e.matcher()
	targets := g.Attributes()
	k := min(TopK, len(targets))
	for _, attr := range ss.Attrs {
		am := AttrMatch{Attr: attr}
		if k > 0 {
			am.Suggestions = make([]Suggestion, 0, k)
		}
		for _, target := range targets {
			am.Suggestions = keepTop(am.Suggestions, Suggestion{Target: target.Name, Score: m.Score(attr, target)})
		}
		best := am.Best()
		switch {
		case best.Score >= e.AcceptThreshold:
			am.Decision = DecisionAccept
		case best.Score >= e.NewThreshold:
			am.Decision = DecisionReview
		default:
			am.Decision = DecisionNew
			rep.Alerts = append(rep.Alerts, fmt.Sprintf(
				"field %q has no counterpart in the global schema yet (best score %.2f); suggested actions: add to global schema, ignore",
				attr.Name, best.Score))
		}
		rep.Matches = append(rep.Matches, am)
	}
	return rep
}

// keepTop inserts s into top, a slice of at most cap(top) suggestions in
// order, after every suggestion it does not rank above, dropping the last
// one when top is full.
func keepTop(top []Suggestion, s Suggestion) []Suggestion {
	i := len(top)
	for i > 0 && ranksAbove(s, top[i-1]) {
		i--
	}
	if i == cap(top) {
		return top
	}
	if len(top) < cap(top) {
		top = append(top, Suggestion{})
	}
	copy(top[i+1:], top[i:])
	top[i] = s
	return top
}

// ranksAbove reports whether a comes before b: a higher score, or an equal
// score and a smaller target.
func ranksAbove(a, b Suggestion) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Target < b.Target
}

// Integrate applies a report: accepted matches map onto their targets,
// no-counterpart attributes are added to the global schema bottom-up, and
// review-band attributes are returned for expert assessment.
func (e *Engine) Integrate(rep *Report, g *schema.Global) (review []AttrMatch, err error) {
	for _, m := range rep.Matches {
		switch m.Decision {
		case DecisionAccept:
			target, ok := g.Attribute(m.Best().Target)
			if !ok {
				return nil, fmt.Errorf("match: accepted target %q missing from global schema", m.Best().Target)
			}
			if mapErr := g.MapAttribute(m.Attr, rep.Source, target); mapErr != nil {
				return nil, mapErr
			}
		case DecisionNew:
			g.AddAttribute(m.Attr, rep.Source)
		case DecisionReview:
			review = append(review, m)
		}
	}
	return review, nil
}

// FormatReport renders the report in the style of Fig. 3: source attributes
// on the left, suggested global targets and heuristic scores on the right.
func (rep *Report) FormatReport() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schema matching: source %s\n", rep.Source)
	fmt.Fprintf(&b, "%-24s %-24s %-8s %s\n", "SOURCE ATTRIBUTE", "SUGGESTED TARGET", "SCORE", "DECISION")
	for _, m := range rep.Matches {
		best := m.Best()
		target := best.Target
		if target == "" {
			target = "(none)"
		}
		fmt.Fprintf(&b, "%-24s %-24s %-8.2f %s\n", m.Attr.Name, target, best.Score, m.Decision)
	}
	for _, a := range rep.Alerts {
		fmt.Fprintf(&b, "! %s\n", a)
	}
	return b.String()
}
