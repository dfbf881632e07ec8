// Package extract implements the domain-specific parser of the paper's
// architecture (the role Recorded Future's parser plays in Figure 1): it
// scans raw web text for entities of interest using gazetteers and surface
// patterns, and emits hierarchical entity/instance documents for the store.
package extract

// Type names an entity type. The constants below are the 15 types of the
// paper's Table III.
type Type string

// Entity types, ordered as in Table III.
const (
	Person           Type = "Person"
	OrgEntity        Type = "OrgEntity"
	GeoEntity        Type = "GeoEntity"
	URL              Type = "URL"
	IndustryTerm     Type = "IndustryTerm"
	Position         Type = "Position"
	Company          Type = "Company"
	Product          Type = "Product"
	Organization     Type = "Organization"
	Facility         Type = "Facility"
	City             Type = "City"
	MedicalCondition Type = "MedicalCondition"
	Technology       Type = "Technology"
	Movie            Type = "Movie"
	ProvinceOrState  Type = "ProvinceOrState"
)

// AllTypes lists every entity type in Table III order.
var AllTypes = []Type{
	Person, OrgEntity, GeoEntity, URL, IndustryTerm, Position, Company,
	Product, Organization, Facility, City, MedicalCondition, Technology,
	Movie, ProvinceOrState,
}

// PaperTypeCounts reproduces the counts of Table III; the data generator
// draws entity types proportionally to these so scaled corpora keep the
// paper's distribution.
var PaperTypeCounts = map[Type]int64{
	Person:           38867351,
	OrgEntity:        33529169,
	GeoEntity:        11964810,
	URL:              11194592,
	IndustryTerm:     9101781,
	Position:         8938934,
	Company:          8846692,
	Product:          8800019,
	Organization:     6301459,
	Facility:         4081458,
	City:             3621317,
	MedicalCondition: 1313487,
	Technology:       940349,
	Movie:            260230,
	ProvinceOrState:  223243,
}

// Mention is one occurrence of an entity in a text fragment.
type Mention struct {
	Type  Type
	Name  string
	Start int // byte offset in the fragment
	End   int
}

// Entity is a typed entity extracted from text, with the attributes the
// parser could attach.
type Entity struct {
	Type Type
	Name string
	// Attributes are sorted by key, each key at most once. Parse hands all
	// of a fragment's entities one list, so callers must not modify it.
	Attributes []Attr
}

// Attr is one attribute of an entity.
type Attr struct {
	Key, Value string
}

// Result is the parser output for one text fragment: the mentions found and
// the distinct entities they refer to.
type Result struct {
	Text     string
	Mentions []Mention
	Entities []Entity
}
