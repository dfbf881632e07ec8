package extract

import (
	"slices"
	"sort"
	"strings"
)

// Gazetteer maps surface forms to entity types. Lookup is case-insensitive
// and longest-match over token spans.
type Gazetteer struct {
	entries map[string]Type // normalized phrase -> type
	// firstTok indexes phrases by their first token for fast scanning.
	firstTok map[string][]gazPhrase
	byType   map[Type][]string // phrases per type, kept sorted
	awards   map[string]bool   // normalized movie/show names that are award winners
	maxLen   int               // longest phrase, in tokens
}

// gazPhrase is a registered phrase split into its tokens once, when added.
type gazPhrase struct {
	toks []string
	typ  Type
}

// NewGazetteer returns an empty gazetteer.
func NewGazetteer() *Gazetteer {
	return &Gazetteer{
		entries:  make(map[string]Type),
		firstTok: make(map[string][]gazPhrase),
		byType:   make(map[Type][]string),
		awards:   make(map[string]bool),
	}
}

func gazNorm(s string) string { return strings.ToLower(strings.TrimSpace(s)) }

// Add registers a surface form under a type.
func (g *Gazetteer) Add(typ Type, name string) {
	key := gazNorm(name)
	if key == "" {
		return
	}
	if _, ok := g.entries[key]; ok {
		return
	}
	g.entries[key] = typ
	names := g.byType[typ]
	at, _ := slices.BinarySearch(names, key)
	g.byType[typ] = slices.Insert(names, at, key)
	toks := strings.Fields(key)
	g.firstTok[toks[0]] = append(g.firstTok[toks[0]], gazPhrase{toks: toks, typ: typ})
	if len(toks) > g.maxLen {
		g.maxLen = len(toks)
	}
}

// MarkAward flags a name as award-winning (used by the Table IV query).
func (g *Gazetteer) MarkAward(name string) { g.awards[gazNorm(name)] = true }

// IsAward reports whether name is flagged award-winning.
func (g *Gazetteer) IsAward(name string) bool { return g.awards[gazNorm(name)] }

// TypeOf returns the registered type of the exact phrase.
func (g *Gazetteer) TypeOf(name string) (Type, bool) {
	t, ok := g.entries[gazNorm(name)]
	return t, ok
}

// Len reports the number of registered phrases.
func (g *Gazetteer) Len() int { return len(g.entries) }

// Names returns all registered surface forms of a type, sorted. The slice
// is the gazetteer's own, kept in order as names are added: callers must not
// change its elements.
func (g *Gazetteer) Names(typ Type) []string {
	names := g.byType[typ]
	return names[:len(names):len(names)]
}

// AwardWinners returns the flagged award-winning names, sorted.
func (g *Gazetteer) AwardWinners() []string {
	out := make([]string, 0, len(g.awards))
	for n := range g.awards {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TableIVShows lists the paper's Table IV "top 10 most discussed
// award-winning movies/shows", in the paper's printed order.
var TableIVShows = []string{
	"The Walking Dead",
	"Written",
	"Mean Streets",
	"Goodfellas",
	"Matilda",
	"The Wolverine",
	"Trees Lounge",
	"Raging Bull",
	"Berkeley in the Sixties",
	"Never Should Have",
}

// DefaultNames seeds the gazetteer for the demo domain. Movie includes the
// Table IV titles plus additional Broadway productions; the Table IV titles
// are flagged as award winners.
var DefaultNames = map[Type][]string{
	Person: {
		"Michael Gubanov", "Michael Stonebraker", "Daniel Bruckner",
		"Robert De Niro", "Martin Scorsese", "Steve Buscemi", "Hugh Jackman",
		"Tim Minchin", "Roald Dahl", "Andrew Lloyd Webber", "Lin Manuel",
		"Idina Menzel", "Nathan Lane", "Sarah Jones", "James Smith",
		"Mary Johnson", "Patricia Brown", "Jennifer Davis", "Linda Wilson",
		"Elizabeth Moore", "Barbara Taylor", "Susan Anderson", "Jessica Thomas",
		"Karen Jackson", "Nancy White", "Christopher Harris", "Matthew Martin",
		"Anthony Thompson", "Donald Garcia", "Paul Martinez", "Mark Robinson",
		"George Clark", "Kenneth Rodriguez", "Steven Lewis", "Edward Lee",
		"Brian Walker", "Ronald Hall", "Kevin Allen", "Jason Young",
	},
	OrgEntity: {
		"City Council", "State Department", "Board of Directors",
		"Planning Commission", "Actors Guild", "Producers Union",
		"Press Office", "Booking Bureau", "Investor Group", "Audit Committee",
		"Standards Body", "Licensing Board", "Arts Council", "Trade Group",
	},
	GeoEntity: {
		"Hudson River", "Central Park", "Times Square", "East Coast",
		"West End", "Long Island", "Manhattan", "Brooklyn", "Silicon Valley",
		"Lincoln Center", "Broadway District", "Theater Row", "Upper West Side",
	},
	IndustryTerm: {
		"box office", "ticket sales", "opening night", "preview period",
		"gross revenue", "subscription model", "streaming rights",
		"touring production", "matinee performance", "standing ovation",
		"advance booking", "dynamic pricing", "rush tickets", "house seats",
	},
	Position: {
		"chief executive officer", "artistic director", "stage manager",
		"executive producer", "music director", "casting director",
		"general manager", "company manager", "press agent", "choreographer",
		"lighting designer", "sound engineer", "box office manager",
	},
	Company: {
		"Recorded Future", "Shubert Organization", "Nederlander Producing",
		"Jujamcyn Theaters", "Disney Theatrical", "Warner Brothers",
		"Paramount Pictures", "Universal Studios", "Lions Gate",
		"Telecharge Services", "Ticketmaster Group", "StubHub Exchange",
		"Goldman Sachs", "Morgan Stanley", "General Electric",
		"International Business Machines", "Acme Analytics", "DataTamer Inc",
	},
	Product: {
		"Playbill Magazine", "Season Pass", "Gift Card", "Audio Guide",
		"Cast Album", "Souvenir Program", "Opera Glasses", "Premium Package",
		"Digital Lottery", "Mobile App", "Loyalty Card", "Box Set",
	},
	Organization: {
		"Broadway League", "Tony Awards Committee", "Drama Desk",
		"Outer Critics Circle", "Actors Equity", "Lincoln Center Theater",
		"Roundabout Theatre Company", "Public Theater", "Second Stage",
		"Manhattan Theatre Club", "New York Philharmonic",
	},
	Facility: {
		"Shubert Theatre", "Broadhurst Theatre", "Majestic Theatre",
		"Gershwin Theatre", "Ambassador Theatre", "Imperial Theatre",
		"Lyceum Theatre", "Palace Theatre", "Winter Garden Theatre",
		"Booth Theatre", "Barrymore Theatre", "Music Box Theatre",
		"Madison Square Garden", "Radio City Music Hall",
	},
	City: {
		"New York", "Cambridge", "Boston", "Berkeley", "London", "Chicago",
		"San Francisco", "Los Angeles", "Seattle", "Austin", "Toronto",
		"Philadelphia", "Washington", "Denver", "Atlanta", "Miami",
	},
	MedicalCondition: {
		"stage fright", "vocal strain", "influenza outbreak", "food poisoning",
		"back injury", "migraine", "laryngitis", "sprained ankle",
		"chronic fatigue", "hearing loss",
	},
	Technology: {
		"machine learning", "speech recognition", "cloud computing",
		"database system", "projection mapping", "wireless microphone",
		"led lighting", "motion capture", "augmented reality",
		"recommendation engine",
	},
	Movie: {
		// Table IV award winners first.
		"The Walking Dead", "Written", "Mean Streets", "Goodfellas",
		"Matilda", "The Wolverine", "Trees Lounge", "Raging Bull",
		"Berkeley in the Sixties", "Never Should Have",
		// Additional Broadway/screen titles for corpus variety.
		"Wicked", "The Lion King", "Chicago", "The Phantom of the Opera",
		"Les Miserables", "Mamma Mia", "Jersey Boys", "The Book of Mormon",
		"Kinky Boots", "Once", "Pippin", "Newsies", "Annie", "Cinderella",
		"Motown", "Lucky Guy", "The Nance", "Vanya and Sonia",
	},
	ProvinceOrState: {
		"New Jersey", "Connecticut", "Massachusetts", "California",
		"Illinois", "Texas", "Ontario", "Pennsylvania", "Florida", "Ohio",
	},
}

// DefaultGazetteer builds a gazetteer seeded with DefaultNames and the
// Table IV award flags. Types are added in AllTypes order so that phrases
// appearing under two types (e.g. "Chicago" the city and the musical)
// resolve deterministically — first registration wins.
func DefaultGazetteer() *Gazetteer {
	g := NewGazetteer()
	for _, typ := range AllTypes {
		for _, n := range DefaultNames[typ] {
			g.Add(typ, n)
		}
	}
	for _, n := range TableIVShows {
		g.MarkAward(n)
	}
	return g
}
