package dedup_test

// The profile scorer against the string path it replaced. oracleFeatures is
// that path as it stood: it re-normalises, re-tokenises and re-trigrams
// both records for every pair and builds the vector as a map. The arithmetic
// of the two is the same and only the inputs are cached, so the features must
// agree to the bit; the probability may differ in its last bits because the
// table model sums in a fixed order where the map model summed in map order.

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dedup"
	"repro/internal/extract"
	"repro/internal/match"
	"repro/internal/ml"
	"repro/internal/record"
	"repro/internal/schema"
	"repro/internal/similarity"
	"repro/internal/textutil"
)

// oracleJaroWinkler is Jaro-Winkler of two strings on a fresh Scratch.
func oracleJaroWinkler(a, b string) float64 {
	var s similarity.Scratch
	return s.JaroWinkler([]rune(a), []rune(b))
}

// oracleJaccard is the Jaccard coefficient of two token lists as sets,
// built as maps; two empty sets are identical (1).
func oracleJaccard(a, b []string) float64 {
	sa, sb := map[string]bool{}, map[string]bool{}
	for _, t := range a {
		sa[t] = true
	}
	for _, t := range b {
		sb[t] = true
	}
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	inter := 0
	for t := range sa {
		if sb[t] {
			inter++
		}
	}
	return float64(inter) / float64(len(sa)+len(sb)-inter)
}

func oracleFeatures(attrs []string, a, b *record.Record) ml.Features {
	if len(attrs) == 0 {
		attrs = oracleUnionAttrs(a, b)
	}
	out := ml.Features{}
	shared, exact := 0, 0
	for _, attr := range attrs {
		va, aok := a.Get(attr)
		vb, bok := b.Get(attr)
		if !aok || !bok || va.IsNull() || vb.IsNull() {
			continue
		}
		shared++
		sa := textutil.Normalize(va.Str())
		sb := textutil.Normalize(vb.Str())
		if sa == sb {
			exact++
		}
		key := record.NormalizeName(attr)
		out["jw:"+key] = oracleJaroWinkler(sa, sb)
		out["tri:"+key] = oracleTrigramSim(sa, sb)
		out["tok:"+key] = oracleJaccard(textutil.ContentWords(sa), textutil.ContentWords(sb))
		if fa, aok := va.AsFloat(); aok {
			if fb, bok := vb.AsFloat(); bok {
				out["num:"+key] = oracleCloseness(fa, fb)
			}
		}
	}
	if shared > 0 {
		out["sharedFrac"] = float64(shared) / float64(len(attrs))
		out["exactFrac"] = float64(exact) / float64(shared)
	}
	return out
}

// oracleTrigramSim is trigram similarity on the strings, converting and
// lower-casing both for every pair.
func oracleTrigramSim(a, b string) float64 {
	ra, rb := []rune(strings.ToLower(a)), []rune(strings.ToLower(b))
	var s similarity.Scratch
	return s.TrigramSim(ra, rb, similarity.Trigrams(ra), similarity.Trigrams(rb))
}

func oracleCloseness(a, b float64) float64 {
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale == 0 {
		return 1
	}
	return 1 / (1 + diff/scale)
}

func oracleUnionAttrs(a, b *record.Record) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range []*record.Record{a, b} {
		for _, f := range r.Fields() {
			key := record.NormalizeName(f.Name)
			if !seen[key] {
				seen[key] = true
				out = append(out, f.Name)
			}
		}
	}
	return out
}

// oracleMatcher is the classifier as it was: naive Bayes over Discretize'd
// string features, predicting from a map built per pair.
type oracleMatcher struct {
	attrs []string
	model *ml.NaiveBayes
}

func trainOracle(pairs []dedup.LabeledPair, attrs []string) oracleMatcher {
	examples := make([]ml.Example, len(pairs))
	for i, p := range pairs {
		examples[i] = ml.Example{Features: oracleDiscretize(oracleFeatures(attrs, p.A, p.B), 5), Label: p.Match}
	}
	return oracleMatcher{attrs: attrs, model: ml.TrainNaiveBayes(examples)}
}

func (o oracleMatcher) prob(features ml.Features) float64 {
	return o.model.PredictProb(oracleDiscretize(features, 5))
}

// oracleDiscretize is ml.Discretize as it was: each value bucketed into
// bins over [0,1], as a presence feature like "jw:name=3of5".
func oracleDiscretize(f ml.Features, bins int) ml.Features {
	out := make(ml.Features, len(f))
	for name, v := range f {
		b := 0
		if v > 0 {
			if b = int(v * float64(bins)); b >= bins {
				b = bins - 1
			}
		}
		out[name+"="+string(rune('0'+b))+"of"+string(rune('0'+bins))] = 1
	}
	return out
}

// trainingPairs are the 600 pairs core trains the Section IV classifier on,
// renamed the way core renames them.
func trainingPairs(seed int64) []dedup.LabeledPair {
	pairs := datagen.GeneratePairs(datagen.PairsConfig{Type: extract.Movie, N: 600, Seed: seed + 17})
	for i, p := range pairs {
		a, b := p.A.Clone(), p.B.Clone()
		a.Rename("name", "SHOW_NAME")
		b.Rename("name", "SHOW_NAME")
		pairs[i] = dedup.LabeledPair{A: a, B: b, Match: p.Match}
	}
	return pairs
}

// translatedTables are the records consolidation sees: the generated
// structured sources matched into a global schema and translated to it.
func translatedTables(t *testing.T, seed int64) []*record.Record {
	return translatedSources(t, seed, 20)
}

// translatedSources is translatedTables over n generated sources.
func translatedSources(t *testing.T, seed int64, n int) []*record.Record {
	engine, global := match.NewEngine(), schema.NewGlobal()
	sources := datagen.GenerateFTables(datagen.FTablesConfig{Sources: n, Seed: seed})
	for _, src := range sources {
		rep := engine.MatchSource(schema.FromSource(src), global)
		review, err := engine.Integrate(rep, global)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range review {
			global.AddAttribute(m.Attr, src.Name)
		}
	}
	var out []*record.Record
	for _, src := range sources {
		for _, r := range src.Records {
			out = append(out, global.Translate(r))
		}
	}
	return out
}

func sameFeatures(t *testing.T, what string, got, want ml.Features) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d features, oracle has %d\n got %v\nwant %v", what, len(got), len(want), got, want)
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok || math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: feature %q = %v (present %v), oracle %v", what, name, g, ok, w)
		}
	}
}

func TestProfileScorerMatchesStringOracle(t *testing.T) {
	coreAttrs := []string{"name", "SHOW_NAME", "city"}
	blocker := dedup.PrefixBlocker("SHOW_NAME", 4)
	for seed := int64(1); seed <= 3; seed++ {
		train := trainingPairs(seed)
		fz := dedup.Featurizer{Attrs: coreAttrs}
		matcher := dedup.TrainMatcher(train, fz, ml.NaiveBayesTrainer(5))
		oracle := trainOracle(train, coreAttrs)
		union := dedup.Featurizer{}

		check := func(what string, a, b *record.Record) bool {
			features := oracleFeatures(coreAttrs, a, b)
			sameFeatures(t, what, fz.Features(a, b), features)
			p, want := matcher.Prob(a, b), oracle.prob(features)
			if math.Abs(p-want) > 1e-12 {
				t.Fatalf("%s: prob %v, oracle %v", what, p, want)
			}
			if (p >= matcher.Threshold) != (want >= 0.5) {
				t.Fatalf("%s: p=%v and oracle p=%v decide differently", what, p, want)
			}
			return want >= 0.5
		}
		for _, p := range train {
			if check("training pair", p.A, p.B) != matcher.Match(p.A, p.B) {
				t.Fatalf("Match disagrees with Prob on a training pair")
			}
			sameFeatures(t, "training pair, union of attributes", union.Features(p.A, p.B), oracleFeatures(nil, p.A, p.B))
		}

		records := translatedTables(t, seed)
		pairs := dedup.CandidatePairs(records, blocker, 0)
		if len(pairs) < 1000 {
			t.Fatalf("seed %d: only %d candidate pairs", seed, len(pairs))
		}
		uf := dedup.NewUnionFind(len(records))
		for i, p := range pairs {
			a, b := records[p.I], records[p.J]
			if check("candidate pair", a, b) {
				uf.Union(p.I, p.J)
			}
			// The union-of-attributes featurizer compares ten times the
			// attributes; a sample of the pairs covers it.
			if i%16 == 0 {
				sameFeatures(t, "candidate pair, union of attributes", union.Features(a, b), oracleFeatures(nil, a, b))
			}
		}

		clusters := (&dedup.Deduper{Blocker: blocker, Matcher: matcher}).Run(records)
		got := make([][]int, len(clusters))
		for i, c := range clusters {
			got[i] = c.Members
		}
		if want := uf.Clusters(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Run clustered %v, oracle %v", seed, got, want)
		}
	}
}
