// Package datagen generates the synthetic datasets the reproduction runs
// on, standing in for artifacts we cannot ship: the ~1 TB Recorded Future
// web-text feed, the 20 Google Fusion Tables sources, and labeled duplicate
// pairs for classifier evaluation. Every generator is deterministic given a
// seed, and the corpus keeps the paper's shape (Table III type mix, Table IV
// discussion ranking, the Matilda facts of Tables V-VI).
package datagen

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/extract"
)

// MatildaFeed is the exact TEXT_FEED excerpt of the paper's Tables V and VI.
const MatildaFeed = "..which began previews on Tuesday, grossed 659,391, or...And Matilda an award-winning import from London, grossed 960,998, or 93 percent of the maximum."

// Fragment is one generated web-text fragment with its crawl URL.
type Fragment struct {
	URL  string
	Text string
}

// WebTextConfig controls corpus generation.
type WebTextConfig struct {
	// Fragments is the number of text fragments to generate.
	Fragments int
	// Seed drives all randomness.
	Seed int64
	// Gazetteer supplies entity surface forms (DefaultGazetteer when nil).
	Gazetteer *extract.Gazetteer
}

// movieShare is the fraction of entity mentions that are movies/shows. The
// paper's general crawl has Movie at ~0.18% (Table III); the demo needs a
// Broadway-enriched corpus for the Table IV ranking to be statistically
// stable at 1/1000 scale. The other 14 types keep the paper's relative
// proportions.
const movieShare = 0.10

// discussionWeights ranks the Table IV shows: earlier entries are mentioned
// more, so mention-count ranking reproduces the paper's top-10 order.
func discussionWeights() map[string]int {
	w := map[string]int{}
	n := len(extract.TableIVShows)
	for i, show := range extract.TableIVShows {
		w[strings.ToLower(show)] = (n - i) * (n - i) // quadratic gap keeps ranking stable
	}
	return w
}

// GenerateWebText produces the synthetic corpus. The first fragment is
// always the paper's Matilda feed, so Tables V-VI reproduce verbatim.
func GenerateWebText(cfg WebTextConfig) []Fragment {
	gaz := cfg.Gazetteer
	if gaz == nil {
		gaz = extract.DefaultGazetteer()
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := newCorpusGen(rng, gaz)

	out := make([]Fragment, 0, cfg.Fragments)
	out = append(out, Fragment{
		URL:  "http://feeds.example.com/broadway/0",
		Text: MatildaFeed,
	})
	for i := 1; i < cfg.Fragments; i++ {
		out = append(out, Fragment{
			URL:  fmt.Sprintf("http://feeds.example.com/%s/%d", g.section(), i),
			Text: g.fragment(),
		})
	}
	return out
}

// corpusGen draws typed entity mentions from the Table III distribution and
// wraps them in sentence frames.
type corpusGen struct {
	rng   *rand.Rand
	gaz   *extract.Gazetteer
	types []extract.Type
	cum   []float64 // cumulative type shares, aligned with types
	shows []string  // Table IV-weighted show pool
}

func newCorpusGen(rng *rand.Rand, gaz *extract.Gazetteer) *corpusGen {
	g := &corpusGen{rng: rng, gaz: gaz, shows: weightedShows(gaz)}
	// Build the mention-type distribution: Movie is pinned to movieShare,
	// every other type keeps its paper proportion of the remainder.
	var otherTotal float64
	for _, typ := range extract.AllTypes {
		if typ != extract.Movie {
			otherTotal += float64(extract.PaperTypeCounts[typ])
		}
	}
	cum := 0.0
	for _, typ := range extract.AllTypes {
		share := movieShare
		if typ != extract.Movie {
			share = (1 - movieShare) * float64(extract.PaperTypeCounts[typ]) / otherTotal
		}
		cum += share
		g.types = append(g.types, typ)
		g.cum = append(g.cum, cum)
	}
	return g
}

// weightedShows expands the movie list so Table IV shows appear with their
// ranking weights; non-award shows appear with weight 1.
func weightedShows(gaz *extract.Gazetteer) []string {
	weights := discussionWeights()
	var out []string
	for _, name := range gaz.Names(extract.Movie) {
		w := weights[name]
		if w == 0 {
			w = 1
		}
		for i := 0; i < w; i++ {
			out = append(out, name)
		}
	}
	return out
}

// drawType samples a mention type from the Table III distribution.
func (g *corpusGen) drawType() extract.Type {
	x := g.rng.Float64()
	for i, c := range g.cum {
		if x <= c {
			return g.types[i]
		}
	}
	return g.types[len(g.types)-1]
}

// mention renders a surface form for a drawn type.
func (g *corpusGen) mention(typ extract.Type) string {
	switch typ {
	case extract.URL:
		return fmt.Sprintf("http://www%d.example.com/a/%d", g.rng.Intn(9), g.rng.Intn(100000))
	case extract.Movie:
		return titleWords(g.shows[g.rng.Intn(len(g.shows))])
	default:
		names := g.gaz.Names(typ)
		if len(names) == 0 {
			return "something"
		}
		return titleWords(names[g.rng.Intn(len(names))])
	}
}

func (g *corpusGen) section() string {
	sections := []string{"broadway", "news", "blogs", "twitter", "business", "health"}
	return sections[g.rng.Intn(len(sections))]
}

func (g *corpusGen) money() string {
	return fmt.Sprintf("%d,%03d", 100+g.rng.Intn(900), g.rng.Intn(1000))
}

func (g *corpusGen) price() string { return fmt.Sprintf("$%d", 20+g.rng.Intn(180)) }

func (g *corpusGen) date() string {
	return fmt.Sprintf("%d/%d/201%d", 1+g.rng.Intn(12), 1+g.rng.Intn(28), 2+g.rng.Intn(3))
}

func (g *corpusGen) percent() string { return fmt.Sprintf("%d percent", 50+g.rng.Intn(50)) }

func (g *corpusGen) weekday() string {
	days := []string{"Tues", "Wed", "Thurs", "Fri", "Sat", "Sun"}
	return days[g.rng.Intn(len(days))]
}

// fragment builds 1-3 sentences; each sentence carries 3-5 typed mentions
// drawn from the distribution, so fragments average close to the paper's
// ~9.8 entities per instance.
func (g *corpusGen) fragment() string {
	n := 1 + g.rng.Intn(3)
	sents := make([]string, n)
	for i := range sents {
		sents[i] = g.sentence()
	}
	return strings.Join(sents, " ")
}

func (g *corpusGen) sentence() string {
	k := 3 + g.rng.Intn(3)
	types := make([]extract.Type, k)
	names := make([]string, k)
	for i := range names {
		types[i] = g.drawType()
		names[i] = g.mention(types[i])
	}
	// Show-discussion frames when the lead mention is a movie — these carry
	// the box-office patterns the attribute extractor feeds on.
	if types[0] == extract.Movie {
		return g.showSentence(names)
	}
	return g.genericSentence(names)
}

// showSentence frames a movie-led mention list with financial detail.
func (g *corpusGen) showSentence(names []string) string {
	rest := glue(names[1:])
	switch g.rng.Intn(4) {
	case 0:
		return fmt.Sprintf("%s, an award-winning import, grossed %s, or %s of the maximum; coverage also noted %s.",
			names[0], g.money(), g.percent(), rest)
	case 1:
		return fmt.Sprintf("Tickets for %s start at %s from %s onward, according to %s.",
			names[0], g.price(), g.date(), rest)
	case 2:
		return fmt.Sprintf("%s runs %s at 7pm and Sat at 2pm, drawing mentions of %s.",
			names[0], g.weekday(), rest)
	default:
		return fmt.Sprintf("%s grossed %s this week as %s made headlines.",
			names[0], g.money(), rest)
	}
}

// genericSentence frames an arbitrary mention list.
func (g *corpusGen) genericSentence(names []string) string {
	rest := glue(names[1:])
	switch g.rng.Intn(4) {
	case 0:
		return fmt.Sprintf("%s drew attention in coverage that also mentioned %s.", names[0], rest)
	case 1:
		return fmt.Sprintf("Reports about %s circulated alongside %s.", names[0], rest)
	case 2:
		return fmt.Sprintf("Analysts linked %s with %s this week.", names[0], rest)
	default:
		return fmt.Sprintf("%s featured in weekend roundups together with %s.", names[0], rest)
	}
}

// glue joins names into "a, b and c".
func glue(names []string) string {
	switch len(names) {
	case 0:
		return "other topics"
	case 1:
		return names[0]
	default:
		return strings.Join(names[:len(names)-1], ", ") + " and " + names[len(names)-1]
	}
}

// titleWords renders a gazetteer (lower-cased) phrase in display case so the
// parser's case-insensitive matching still hits while text looks natural.
func titleWords(s string) string {
	words := strings.Fields(s)
	for i, w := range words {
		r := []rune(w)
		if len(r) > 0 && r[0] >= 'a' && r[0] <= 'z' {
			r[0] = r[0] - 'a' + 'A'
		}
		words[i] = string(r)
	}
	return strings.Join(words, " ")
}
