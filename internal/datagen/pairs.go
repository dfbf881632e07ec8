package datagen

import (
	"math/rand"
	"strings"

	"repro/internal/dedup"
	"repro/internal/extract"
	"repro/internal/record"
)

// PairsConfig controls labeled duplicate-pair generation for the classifier
// experiment (the paper's 10-fold 89/90 precision/recall evaluation).
type PairsConfig struct {
	// Type selects the entity type whose names seed the pairs.
	Type extract.Type
	// N is the number of labeled pairs (half positive, half negative).
	N int
	// Seed drives all randomness.
	Seed int64
	// HardFraction is the fraction of deliberately difficult pairs: heavily
	// corrupted duplicates and near-miss non-duplicates (including blended
	// confusables like "Majestic Theatre"/"Imperial Theatre" one token
	// apart). Higher values pull classifier precision/recall down from
	// ~99% toward the paper's ~89/90. Default 0.5.
	HardFraction float64
	// Gazetteer supplies names (DefaultGazetteer when nil).
	Gazetteer *extract.Gazetteer
}

// GeneratePairs builds labeled pairs over entity records of the configured
// type. Each record carries name, type, city, and source attributes —
// mirroring flattened WEBENTITIES records.
func GeneratePairs(cfg PairsConfig) []dedup.LabeledPair {
	gaz := cfg.Gazetteer
	if gaz == nil {
		gaz = extract.DefaultGazetteer()
	}
	if cfg.HardFraction == 0 {
		cfg.HardFraction = 0.5
	}
	names := gaz.Names(cfg.Type)
	if len(names) < 2 {
		return nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	cities := []string{"new york", "boston", "chicago", "london", "toronto"}

	makeRec := func(name, city, src string) *record.Record {
		r := record.NewCap(3)
		r.Source = src
		r.Set("name", record.String(name))
		r.Set("type", record.String(string(cfg.Type)))
		r.Set("city", record.String(city))
		return r
	}

	out := make([]dedup.LabeledPair, 0, cfg.N)
	for i := 0; i < cfg.N; i++ {
		name := names[rng.Intn(len(names))]
		city := cities[rng.Intn(len(cities))]
		hard := rng.Float64() < cfg.HardFraction
		if i%2 == 0 {
			// Positive: same entity with surface noise.
			variant := corrupt(name, rng, hard)
			vcity := city
			if hard && rng.Intn(2) == 0 {
				vcity = cities[rng.Intn(len(cities))] // conflicting context
			}
			out = append(out, dedup.LabeledPair{
				A:     makeRec(name, city, "web1"),
				B:     makeRec(variant, vcity, "web2"),
				Match: true,
			})
			continue
		}
		// Negative: distinct entities; hard negatives share a token.
		other := pickOther(names, name, rng, hard)
		ocity := cities[rng.Intn(len(cities))]
		if hard {
			ocity = city // shared context makes it harder
		}
		out = append(out, dedup.LabeledPair{
			A:     makeRec(name, city, "web1"),
			B:     makeRec(other, ocity, "web2"),
			Match: false,
		})
	}
	return out
}

// corrupt produces a surface variant of name: typos, token drops, casing,
// reordering. Hard variants get several corruptions.
func corrupt(name string, rng *rand.Rand, hard bool) string {
	n := 1
	if hard {
		n = 2 + rng.Intn(2)
	}
	out := name
	for i := 0; i < n; i++ {
		switch rng.Intn(5) {
		case 0: // delete a character
			r := []rune(out)
			if len(r) > 4 {
				p := 1 + rng.Intn(len(r)-2)
				out = string(append(r[:p], r[p+1:]...))
			}
		case 1: // swap adjacent characters
			r := []rune(out)
			if len(r) > 4 {
				p := 1 + rng.Intn(len(r)-3)
				r[p], r[p+1] = r[p+1], r[p]
				out = string(r)
			}
		case 2: // drop a token
			words := strings.Fields(out)
			if len(words) > 2 {
				p := rng.Intn(len(words))
				out = strings.Join(append(words[:p:p], words[p+1:]...), " ")
			}
		case 3: // case change
			out = strings.ToUpper(out)
		case 4: // reorder tokens
			words := strings.Fields(out)
			if len(words) > 1 {
				words[0], words[len(words)-1] = words[len(words)-1], words[0]
				out = strings.Join(words, " ")
			}
		}
	}
	if out == "" {
		out = name
	}
	return out
}

// pickOther selects a distinct name; hard negatives prefer a confusable —
// either a real name sharing a token, or a blend of the two names one
// token apart (distinct entities with near-identical surface forms exist
// in real data: "Majestic Theatre" vs "Imperial Theatre").
func pickOther(names []string, name string, rng *rand.Rand, hard bool) string {
	if hard {
		other := randomOther(names, name, rng)
		if rng.Intn(3) == 0 {
			if blended := blendNames(name, other); blended != "" && !strings.EqualFold(blended, name) {
				return blended
			}
		}
		tok := strings.Fields(name)
		var sharing []string
		for _, cand := range names {
			if cand == name {
				continue
			}
			for _, t := range tok {
				if len(t) > 2 && strings.Contains(cand, t) {
					sharing = append(sharing, cand)
					break
				}
			}
		}
		if len(sharing) > 0 {
			return sharing[rng.Intn(len(sharing))]
		}
		return other
	}
	return randomOther(names, name, rng)
}

func randomOther(names []string, name string, rng *rand.Rand) string {
	for {
		other := names[rng.Intn(len(names))]
		if other != name {
			return other
		}
	}
}

// blendNames keeps all but the last token of a and substitutes the last
// token of b, producing a near-miss distinct name. It returns "" when a is
// a single token.
func blendNames(a, b string) string {
	at := strings.Fields(a)
	bt := strings.Fields(b)
	if len(at) < 2 || len(bt) == 0 {
		return ""
	}
	return strings.Join(append(at[:len(at)-1:len(at)-1], bt[len(bt)-1]), " ")
}

// PairTypes lists the entity types the classifier experiment evaluates —
// the "several different types of entities" of Section IV.
var PairTypes = []extract.Type{extract.Person, extract.Company, extract.Movie, extract.Facility}
