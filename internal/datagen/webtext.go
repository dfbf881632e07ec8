// Package datagen generates the synthetic datasets the reproduction runs
// on, standing in for artifacts we cannot ship: the ~1 TB Recorded Future
// web-text feed, the 20 Google Fusion Tables sources, and labeled duplicate
// pairs for classifier evaluation. Every generator is deterministic given a
// seed, and the corpus keeps the paper's shape (Table III type mix, Table IV
// discussion ranking, the Matilda facts of Tables V-VI).
package datagen

import (
	"math/rand"
	"strconv"
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

// GenerateWebText produces the synthetic corpus whole: the fragments of a
// WebText stream, read to the end. The first fragment is always the
// paper's Matilda feed, so Tables V-VI reproduce verbatim.
func GenerateWebText(cfg WebTextConfig) []Fragment {
	w := NewWebText(cfg)
	out := make([]Fragment, 0, max(cfg.Fragments, 1))
	for win := w.Next(Window); len(win) > 0; win = w.Next(Window) {
		out = append(out, win...)
	}
	return out
}

// Window is how many fragments a reader takes from a WebText stream at a
// time, and so how many share one string: GenerateWebText, cmd/dtgen and
// the core text load all read windows of this size.
const Window = 500

// WebText streams the synthetic corpus a window at a time, so a loader
// holds one window of it, not the corpus. Fragment i is the same whatever
// the windows: every random draw is made in corpus order.
type WebText struct {
	g     *corpusGen
	next  int // index of the next fragment
	total int // fragments in the corpus: the Matilda feed at least
	// buf holds the window being written, URL then text for each
	// fragment, and ends where each of them ends in it; out is the
	// window's fragments. All three are reused from window to window.
	buf  []byte
	ends []int
	out  []Fragment
}

// NewWebText starts the corpus cfg describes.
func NewWebText(cfg WebTextConfig) *WebText {
	gaz := cfg.Gazetteer
	if gaz == nil {
		gaz = extract.DefaultGazetteer()
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	return &WebText{g: newCorpusGen(rng, gaz), total: max(cfg.Fragments, 1)}
}

// Next returns the corpus's next n fragments, fewer at its end and none
// past it. The window's URLs and texts share one string, built once; the
// slice itself is reused by the next call.
func (w *WebText) Next(n int) []Fragment {
	n = min(n, w.total-w.next)
	if cap(w.out) < n { // the first window, or one longer than any before
		w.buf = make([]byte, 0, n*fragmentBytes)
		w.ends = make([]int, 0, 2*n)
		w.out = make([]Fragment, 0, n)
	}
	w.buf, w.ends = w.buf[:0], w.ends[:0]
	for range max(n, 0) {
		if w.next == 0 {
			w.buf = append(w.buf, "http://feeds.example.com/broadway/0"...)
			w.ends = append(w.ends, len(w.buf))
			w.buf = append(w.buf, MatildaFeed...)
		} else {
			w.buf = append(w.buf, "http://feeds.example.com/"...)
			w.buf = append(w.buf, w.g.section()...)
			w.buf = append(w.buf, '/')
			w.buf = strconv.AppendInt(w.buf, int64(w.next), 10)
			w.ends = append(w.ends, len(w.buf))
			w.buf = w.g.appendFragment(w.buf)
		}
		w.ends = append(w.ends, len(w.buf))
		w.next++
	}
	s := string(w.buf)
	w.out = w.out[:0]
	for i := 0; i < len(w.ends); i += 2 {
		lo := 0
		if i > 0 {
			lo = w.ends[i-1]
		}
		w.out = append(w.out, Fragment{URL: s[lo:w.ends[i]], Text: s[w.ends[i]:w.ends[i+1]]})
	}
	return w.out
}

// fragmentBytes is the room a window's buffer starts with per fragment. A
// generated URL and text take 255 bytes on average (seeds 1 to 3), so a
// window of a few hundred fragments fits with room to spare and the buffer
// is not regrown.
const fragmentBytes = 320

// corpusGen draws typed entity mentions from the Table III distribution and
// wraps them in sentence frames, appending the text it writes.
type corpusGen struct {
	rng   *rand.Rand
	types []extract.Type
	cum   []float64 // cumulative type shares, aligned with types
	// names holds, aligned with types, the display-cased names a mention
	// of the type draws from: the Table IV-weighted show pool for Movie,
	// the gazetteer's names for the rest (none for URL).
	names [][]string
}

func newCorpusGen(rng *rand.Rand, gaz *extract.Gazetteer) *corpusGen {
	g := &corpusGen{rng: rng}
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
		var names []string
		switch typ {
		case extract.URL:
		case extract.Movie:
			names = weightedShows(gaz.Names(typ))
		default:
			names = displayNames(gaz.Names(typ))
		}
		cum += share
		g.types = append(g.types, typ)
		g.cum = append(g.cum, cum)
		g.names = append(g.names, names)
	}
	return g
}

// displayNames renders each gazetteer name in display case, once.
func displayNames(names []string) []string {
	out := make([]string, len(names))
	for i, name := range names {
		out[i] = titleWords(name)
	}
	return out
}

// weightedShows expands the movie list, in display case, so Table IV
// shows appear with their ranking weights; non-award shows appear with
// weight 1.
func weightedShows(names []string) []string {
	weights := discussionWeights()
	var out []string
	for _, name := range names {
		w, display := max(weights[name], 1), titleWords(name)
		for range w {
			out = append(out, display)
		}
	}
	return out
}

// drawType samples a mention type from the Table III distribution and
// returns its place in g.types.
func (g *corpusGen) drawType() int {
	x := g.rng.Float64()
	for i, c := range g.cum {
		if x <= c {
			return i
		}
	}
	return len(g.types) - 1
}

// mention is a drawn surface form: a name, or a URL given by its two
// numbers.
type mention struct {
	name       string
	host, page int
	isURL      bool
}

// mention draws a surface form for the type at place i of g.types. A
// movie is drawn from its pool however small; a type with no names is
// "something".
func (g *corpusGen) mention(i int) mention {
	names := g.names[i]
	switch {
	case g.types[i] == extract.URL:
		host := g.rng.Intn(9)
		return mention{host: host, page: g.rng.Intn(100000), isURL: true}
	case g.types[i] == extract.Movie || len(names) > 0:
		return mention{name: names[g.rng.Intn(len(names))]}
	default:
		return mention{name: "something"}
	}
}

func (m mention) appendTo(b []byte) []byte {
	if !m.isURL {
		return append(b, m.name...)
	}
	b = append(b, "http://www"...)
	b = strconv.AppendInt(b, int64(m.host), 10)
	b = append(b, ".example.com/a/"...)
	return strconv.AppendInt(b, int64(m.page), 10)
}

var (
	sections = []string{"broadway", "news", "blogs", "twitter", "business", "health"}
	weekdays = []string{"Tues", "Wed", "Thurs", "Fri", "Sat", "Sun"}
)

func (g *corpusGen) section() string { return sections[g.rng.Intn(len(sections))] }

// appendInt appends the draw base+Intn(n).
func (g *corpusGen) appendInt(b []byte, base, n int) []byte {
	return strconv.AppendInt(b, int64(base+g.rng.Intn(n)), 10)
}

// appendMoney appends a gross such as 659,391.
func (g *corpusGen) appendMoney(b []byte) []byte {
	b = g.appendInt(b, 100, 900)
	b = append(b, ',')
	low := g.rng.Intn(1000)
	if low < 100 {
		b = append(b, '0')
	}
	if low < 10 {
		b = append(b, '0')
	}
	return strconv.AppendInt(b, int64(low), 10)
}

func (g *corpusGen) appendPrice(b []byte) []byte {
	return g.appendInt(append(b, '$'), 20, 180)
}

func (g *corpusGen) appendDate(b []byte) []byte {
	b = append(g.appendInt(b, 1, 12), '/')
	b = append(g.appendInt(b, 1, 28), "/201"...)
	return g.appendInt(b, 2, 3)
}

func (g *corpusGen) appendPercent(b []byte) []byte {
	return append(g.appendInt(b, 50, 50), " percent"...)
}

// appendFragment appends 1-3 sentences; each sentence carries 3-5 typed
// mentions drawn from the distribution, so fragments average close to the
// paper's ~9.8 entities per instance.
func (g *corpusGen) appendFragment(b []byte) []byte {
	n := 1 + g.rng.Intn(3)
	for i := range n {
		if i > 0 {
			b = append(b, ' ')
		}
		b = g.appendSentence(b)
	}
	return b
}

func (g *corpusGen) appendSentence(b []byte) []byte {
	var drawn [5]mention
	ms := drawn[:3+g.rng.Intn(3)]
	lead := 0
	for i := range ms {
		t := g.drawType()
		if i == 0 {
			lead = t
		}
		ms[i] = g.mention(t)
	}
	// Show-discussion frames when the lead mention is a movie — these carry
	// the box-office patterns the attribute extractor feeds on.
	if g.types[lead] == extract.Movie {
		return g.appendShowSentence(b, ms)
	}
	return g.appendGenericSentence(b, ms)
}

// appendShowSentence frames a movie-led mention list with financial detail.
func (g *corpusGen) appendShowSentence(b []byte, ms []mention) []byte {
	switch g.rng.Intn(4) {
	case 0:
		b = append(ms[0].appendTo(b), ", an award-winning import, grossed "...)
		b = append(g.appendMoney(b), ", or "...)
		b = append(g.appendPercent(b), " of the maximum; coverage also noted "...)
		return append(appendGlue(b, ms[1:]), '.')
	case 1:
		b = append(ms[0].appendTo(append(b, "Tickets for "...)), " start at "...)
		b = append(g.appendPrice(b), " from "...)
		b = append(g.appendDate(b), " onward, according to "...)
		return append(appendGlue(b, ms[1:]), '.')
	case 2:
		b = append(ms[0].appendTo(b), " runs "...)
		b = append(b, weekdays[g.rng.Intn(len(weekdays))]...)
		b = append(b, " at 7pm and Sat at 2pm, drawing mentions of "...)
		return append(appendGlue(b, ms[1:]), '.')
	default:
		b = append(ms[0].appendTo(b), " grossed "...)
		b = append(g.appendMoney(b), " this week as "...)
		return append(appendGlue(b, ms[1:]), " made headlines."...)
	}
}

// genericFrames are the frames of an arbitrary mention list: the text
// before the lead mention, between it and the rest, and after the rest.
var genericFrames = [4][3]string{
	{"", " drew attention in coverage that also mentioned ", "."},
	{"Reports about ", " circulated alongside ", "."},
	{"Analysts linked ", " with ", " this week."},
	{"", " featured in weekend roundups together with ", "."},
}

// appendGenericSentence frames an arbitrary mention list.
func (g *corpusGen) appendGenericSentence(b []byte, ms []mention) []byte {
	f := &genericFrames[g.rng.Intn(len(genericFrames))]
	b = append(ms[0].appendTo(append(b, f[0]...)), f[1]...)
	return append(appendGlue(b, ms[1:]), f[2]...)
}

// appendGlue appends the mentions as "a, b and c".
func appendGlue(b []byte, ms []mention) []byte {
	if len(ms) == 0 {
		return append(b, "other topics"...)
	}
	for i, m := range ms {
		switch {
		case i == 0:
		case i == len(ms)-1:
			b = append(b, " and "...)
		default:
			b = append(b, ", "...)
		}
		b = m.appendTo(b)
	}
	return b
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
