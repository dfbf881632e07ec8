package datagen

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/ingest"
	"repro/internal/record"
)

// ShowFacts is the ground truth for one Broadway show, from which every
// FTABLES source renders its (noisy) rows.
type ShowFacts struct {
	Show        string
	Theater     string
	Address     string
	Performance string
	Price       int // cheapest price in dollars
	Discount    string
	First       string // opening date, M/D/YYYY
	Phone       string
	URL         string
	City        string
	State       string
}

// MatildaFacts reproduces the paper's Table VI values exactly.
var MatildaFacts = ShowFacts{
	Show:        "Matilda",
	Theater:     "Shubert 225 W. 44th St between 7th and 8th",
	Address:     "225 W. 44th St",
	Performance: "Tues at 7pm Wed at 8pm Thurs at 7pm Fri-Sat at 8pm Wed, Sat at 2pm Sun at 3pm",
	Price:       27,
	Discount:    "35% off with code BWAYML",
	First:       "3/4/2013",
	Phone:       "(212) 239-6200",
	URL:         "http://matildathemusical.example.com",
	City:        "New York",
	State:       "New York",
}

// theaters pairs venue names with street addresses for fact generation.
var theaters = []struct{ name, address string }{
	{"Gershwin Theatre", "222 W. 51st St"},
	{"Majestic Theatre", "245 W. 44th St"},
	{"Ambassador Theatre", "219 W. 49th St"},
	{"Imperial Theatre", "249 W. 45th St"},
	{"Lyceum Theatre", "149 W. 45th St"},
	{"Palace Theatre", "1564 Broadway"},
	{"Winter Garden Theatre", "1634 Broadway"},
	{"Booth Theatre", "222 W. 45th St"},
	{"Barrymore Theatre", "243 W. 47th St"},
	{"Music Box Theatre", "239 W. 45th St"},
	{"Broadhurst Theatre", "235 W. 44th St"},
}

// broadwayShows is the show population beyond Matilda.
var broadwayShows = []string{
	"Wicked", "The Lion King", "Chicago", "The Phantom of the Opera",
	"Les Miserables", "Mamma Mia", "Jersey Boys", "The Book of Mormon",
	"Kinky Boots", "Once", "Pippin", "Newsies", "Annie", "Cinderella",
	"Motown", "Lucky Guy", "The Nance", "Vanya and Sonia",
}

// GenerateFacts builds the deterministic ground-truth table: Matilda's paper
// facts plus generated facts for the other shows.
func GenerateFacts(seed int64) []ShowFacts {
	rng := rand.New(rand.NewSource(seed))
	out := []ShowFacts{MatildaFacts}
	days := [][2]string{{"Tues at 7pm", "Sat at 2pm"}, {"Wed at 8pm", "Sun at 3pm"}, {"Thurs at 7pm", "Sat at 8pm"}}
	for i, show := range broadwayShows {
		th := theaters[i%len(theaters)]
		d := days[rng.Intn(len(days))]
		out = append(out, ShowFacts{
			Show:        show,
			Theater:     th.name,
			Address:     th.address,
			Performance: d[0] + " " + d[1],
			Price:       25 + rng.Intn(150),
			Discount:    fmt.Sprintf("%d%% off with code BWAY%02d", 10+5*rng.Intn(7), i),
			First:       fmt.Sprintf("%d/%d/20%02d", 1+rng.Intn(12), 1+rng.Intn(28), 3+rng.Intn(11)),
			Phone:       fmt.Sprintf("(212) 239-%04d", 1000+rng.Intn(9000)),
			URL:         fmt.Sprintf("http://%s.example.com", strings.ReplaceAll(strings.ToLower(show), " ", "")),
			City:        "New York",
			State:       "New York",
		})
	}
	return out
}

// concept describes one attribute concept with its per-source name variants
// and a renderer from facts.
type concept struct {
	variants []string
	render   func(f ShowFacts, rng *rand.Rand) record.Value
}

func strVal(s string) record.Value { return record.Infer(s) }

// ftConcepts is the heterogeneous attribute vocabulary of the 20 sources.
var ftConcepts = []concept{
	{
		variants: []string{"Show Name", "Show", "Title", "Production", "show_name"},
		render:   func(f ShowFacts, _ *rand.Rand) record.Value { return record.String(f.Show) },
	},
	{
		variants: []string{"Theater", "Theatre", "Venue", "Playhouse"},
		render:   func(f ShowFacts, _ *rand.Rand) record.Value { return record.String(f.Theater) },
	},
	{
		variants: []string{"Address", "Location", "Street Address"},
		render:   func(f ShowFacts, _ *rand.Rand) record.Value { return record.String(f.Address) },
	},
	{
		variants: []string{"Performance", "Schedule", "Showtimes", "Performance Times"},
		render:   func(f ShowFacts, _ *rand.Rand) record.Value { return record.String(f.Performance) },
	},
	{
		variants: []string{"Cheapest Price", "Price", "Ticket Price", "Lowest Price", "Cost"},
		render: func(f ShowFacts, rng *rand.Rand) record.Value {
			switch rng.Intn(3) {
			case 0:
				return record.String(fmt.Sprintf("$%d", f.Price))
			case 1:
				return record.Int(int64(f.Price))
			default:
				return record.String(fmt.Sprintf("%d.00", f.Price))
			}
		},
	},
	{
		variants: []string{"Discount", "Deal", "Promo", "Offer"},
		render:   func(f ShowFacts, _ *rand.Rand) record.Value { return record.String(f.Discount) },
	},
	{
		variants: []string{"First", "Opening Date", "Premiere", "First Performance"},
		render: func(f ShowFacts, rng *rand.Rand) record.Value {
			if rng.Intn(2) == 0 {
				return record.String(f.First)
			}
			if iso, err := isoDate(f.First); err == nil {
				return record.String(iso)
			}
			return record.String(f.First)
		},
	},
	{
		variants: []string{"Phone", "Telephone", "Box Office Phone"},
		render:   func(f ShowFacts, _ *rand.Rand) record.Value { return record.String(f.Phone) },
	},
	{
		variants: []string{"URL", "Website", "Link"},
		render:   func(f ShowFacts, _ *rand.Rand) record.Value { return record.String(f.URL) },
	},
	{
		variants: []string{"City", "Town"},
		render:   func(f ShowFacts, _ *rand.Rand) record.Value { return record.String(f.City) },
	},
	{
		variants: []string{"State", "Province"},
		render:   func(f ShowFacts, _ *rand.Rand) record.Value { return record.String(f.State) },
	},
	{
		variants: []string{"Runtime Minutes", "Running Time"},
		render: func(_ ShowFacts, rng *rand.Rand) record.Value {
			return record.Int(int64(90 + rng.Intn(90)))
		},
	},
	{
		variants: []string{"Rating", "Stars"},
		render: func(_ ShowFacts, rng *rand.Rand) record.Value {
			return record.Float(float64(20+rng.Intn(30)) / 10)
		},
	},
	{
		variants: []string{"Capacity", "Seats"},
		render: func(_ ShowFacts, rng *rand.Rand) record.Value {
			return record.Int(int64(500 + rng.Intn(1500)))
		},
	},
	{
		variants: []string{"Accessible", "Wheelchair Access"},
		render: func(_ ShowFacts, rng *rand.Rand) record.Value {
			return record.Bool(rng.Intn(4) != 0)
		},
	},
	{
		variants: []string{"Notes", "Comments"},
		render: func(_ ShowFacts, rng *rand.Rand) record.Value {
			notes := []string{"limited run", "student rush available", "no late seating", "intermission 15 min"}
			return record.String(notes[rng.Intn(len(notes))])
		},
	},
	{
		variants: []string{"Matinee Day", "Matinee"},
		render: func(_ ShowFacts, rng *rand.Rand) record.Value {
			days := []string{"Wed", "Sat", "Sun"}
			return record.String(days[rng.Intn(len(days))])
		},
	},
	{
		variants: []string{"Box Office Hours"},
		render: func(_ ShowFacts, rng *rand.Rand) record.Value {
			return record.String(fmt.Sprintf("10am-%dpm", 6+rng.Intn(4)))
		},
	},
	{
		variants: []string{"Age Recommendation", "Ages"},
		render: func(_ ShowFacts, rng *rand.Rand) record.Value {
			return record.String(fmt.Sprintf("%d+", 4+2*rng.Intn(5)))
		},
	},
	{
		variants: []string{"Group Sales Minimum"},
		render: func(_ ShowFacts, rng *rand.Rand) record.Value {
			return record.Int(int64(10 + 5*rng.Intn(4)))
		},
	},
}

func isoDate(mdY string) (string, error) {
	t, err := record.ParseTime(mdY)
	if err != nil {
		return "", fmt.Errorf("%w %q", err, mdY)
	}
	return t.Format("2006-01-02"), nil
}

// FTablesConfig controls structured-source generation.
type FTablesConfig struct {
	// Sources is the number of sources (paper: 20).
	Sources int
	// Seed drives all randomness.
	Seed int64
}

// GenerateFTables builds the structured sources: each has 5-20 attributes
// drawn from the concept vocabulary (show name always present) and 10-100
// rows over the show facts. Source ft00 always contains Matilda with the
// Table VI fields, so the fusion demo can reproduce the paper's output.
func GenerateFTables(cfg FTablesConfig) []*ingest.Source {
	if cfg.Sources <= 0 {
		cfg.Sources = 20
	}
	facts := GenerateFacts(cfg.Seed)

	out := make([]*ingest.Source, 0, cfg.Sources)
	for si := 0; si < cfg.Sources; si++ {
		name := fmt.Sprintf("ft%02d", si)
		srcRng := rand.New(rand.NewSource(cfg.Seed + int64(si)*7919))
		concepts := chooseConcepts(srcRng, si == 0)
		attrNames := make([]string, len(concepts))
		for i, ci := range concepts {
			v := ftConcepts[ci].variants
			if si == 0 {
				// The first source establishes the global schema bottom-up,
				// so it carries the canonical names of the paper's demo
				// (SHOW_NAME, THEATER, PERFORMANCE, CHEAPEST_PRICE, FIRST).
				attrNames[i] = v[0]
				continue
			}
			attrNames[i] = v[srcRng.Intn(len(v))]
		}
		rows := 10 + srcRng.Intn(91)
		if rows > len(facts)*6 {
			rows = len(facts) * 6
		}
		var recs []*record.Record
		// Source ft00 pins the Matilda row with the paper's exact fields.
		if si == 0 {
			recs = append(recs, matildaRow(concepts, attrNames))
		}
		distinct := namesDistinct(attrNames)
		for len(recs) < rows {
			f := facts[srcRng.Intn(len(facts))]
			r := record.NewCap(len(concepts))
			for i, ci := range concepts {
				if v := ftConcepts[ci].render(f, srcRng); distinct {
					r.Append(attrNames[i], v)
				} else {
					r.Set(attrNames[i], v)
				}
			}
			recs = append(recs, r)
		}
		out = append(out, ingest.NewSource(name, recs))
	}
	return out
}

// namesDistinct reports whether no two of names normalize alike, so that a
// record of them can be built by appending, without Set's scan.
func namesDistinct(names []string) bool {
	for i := range names {
		for j := range i {
			if record.NameEqual(names[i], names[j]) {
				return false
			}
		}
	}
	return true
}

// chooseConcepts picks 5-20 concept indices; the show concept (index 0) is
// always included. When pinCore is set (source ft00) the theater,
// performance, price and first concepts are forced in so the Table VI
// enrichment fields exist.
func chooseConcepts(rng *rand.Rand, pinCore bool) []int {
	n := 5 + rng.Intn(16)
	if n > len(ftConcepts) {
		n = len(ftConcepts)
	}
	chosen := map[int]bool{0: true}
	if pinCore {
		for _, ci := range []int{1, 3, 4, 5, 6} { // theater, performance, price, discount, first
			chosen[ci] = true
		}
	}
	for len(chosen) < n {
		chosen[rng.Intn(len(ftConcepts))] = true
	}
	out := make([]int, 0, len(chosen))
	for ci := range chosen {
		out = append(out, ci)
	}
	sort.Ints(out)
	return out
}

// matildaRow renders the pinned Matilda record using source ft00's chosen
// attribute names but deterministic (paper-exact) values.
func matildaRow(concepts []int, attrNames []string) *record.Record {
	r := record.New()
	f := MatildaFacts
	for i, ci := range concepts {
		switch ci {
		case 0:
			r.Set(attrNames[i], record.String(f.Show))
		case 1:
			r.Set(attrNames[i], record.String(f.Theater))
		case 2:
			r.Set(attrNames[i], record.String(f.Address))
		case 3:
			r.Set(attrNames[i], record.String(f.Performance))
		case 4:
			r.Set(attrNames[i], record.String(fmt.Sprintf("$%d", f.Price)))
		case 5:
			r.Set(attrNames[i], record.String(f.Discount))
		case 6:
			r.Set(attrNames[i], record.String(f.First))
		case 7:
			r.Set(attrNames[i], record.String(f.Phone))
		case 8:
			r.Set(attrNames[i], record.String(f.URL))
		case 9:
			r.Set(attrNames[i], record.String(f.City))
		case 10:
			r.Set(attrNames[i], record.String(f.State))
		default:
			r.Set(attrNames[i], strVal("n/a"))
		}
	}
	return r
}
