package dedup

// TrainMatcher against the trainer it replaced, kept verbatim but for its
// name and the Trainer's method: every pair featurized into an ml.Features
// map from two fresh profiles, and the maps handed to the trainer.

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/ml"
	"repro/internal/record"
)

func refTrainMatcher(pairs []LabeledPair, fz Featurizer, trainer ml.Trainer) *Matcher {
	if trainer == nil {
		trainer = ml.NaiveBayesTrainer(5)
	}
	examples := make([]ml.Example, len(pairs))
	features := newScorer(fz, nil)
	for i, p := range pairs {
		examples[i] = ml.Example{Features: features.features(p.A, p.B), Label: p.Match}
	}
	m := &Matcher{Model: trainer.Train(examples), Featurizer: fz, Threshold: 0.5}
	m.sc = newScorer(fz, m.Model)
	return m
}

// trainValues are the values a fuzzed record's name takes, and trainCities
// its city's; the first of each stands for an absent field. They repeat
// across records, and hold null, the empty string, one name in two cases,
// and equal Str under different Kinds: "27" against 27, "true" against
// true.
var (
	trainValues = []record.Value{
		{}, record.Null, record.String("Matilda"), record.String("Matild"), record.String("MATILDA"),
		record.String("27"), record.Int(27), record.Float(27.5), record.String("true"), record.Bool(true), record.String(""),
	}
	trainCities = []record.Value{{}, record.String("new york"), record.String("true"), record.Bool(true)}
)

// trainRecord reads a record from a byte: its name (low nibble), its city
// (bits 4-5), whether the name is spelled "Name" (bit 6) and whether the
// city comes first (bit 7).
func trainRecord(b byte) *record.Record {
	r := record.New()
	name, city := trainValues[int(b&0x0f)%len(trainValues)], trainCities[(b>>4)&3]
	field := "name"
	if b&0x40 != 0 {
		field = "Name"
	}
	if b&0x80 != 0 && city != (record.Value{}) {
		r.Set("city", city)
	}
	if name != (record.Value{}) {
		r.Set(field, name)
	}
	if b&0x80 == 0 && city != (record.Value{}) {
		r.Set("city", city)
	}
	return r
}

// trainFeaturizers are the featurizers a fuzzed run picks from: the union
// of fields, two attributes, one attribute named twice, and an attribute no
// record holds.
var trainFeaturizers = []Featurizer{
	{},
	{Attrs: []string{"name", "city"}},
	{Attrs: []string{"name", "Name", "city"}},
	{Attrs: []string{"SHOW_NAME", "name"}},
}

// FuzzTrainMatcherMatchesReference: over pairs from a small alphabet of
// values, with either featurizer mode, TrainMatcher fits the model the
// map-building trainer fits, and the two give probabilities equal to the
// bit on every training pair and on held-out pairs. The first byte picks
// the featurizer; then each pair is three bytes: its two records and a
// byte whose bit 0 is its label and bit 1 holds it out of training.
func FuzzTrainMatcherMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0x12, 0x13, 1, 0x12, 0x15, 0, 0x56, 0x15, 1, 0x29, 0x18, 2})
	f.Add([]byte{1, 0x12, 0x13, 1, 0x12, 0x53, 1, 0x05, 0x06, 0, 0x26, 0x39, 1, 0x02, 0x04, 3})
	f.Add([]byte{2, 0x12, 0x52, 1, 0x80, 0x11, 0, 0x9a, 0x1a, 1, 0x07, 0x17, 0, 0x43, 0x43, 2})
	f.Add([]byte{3, 0x12, 0x12, 1, 0x13, 0x14, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 121 {
			return
		}
		fz := trainFeaturizers[int(data[0])%len(trainFeaturizers)]
		var train, all []LabeledPair
		for data = data[1:]; len(data) >= 3; data = data[3:] {
			p := LabeledPair{A: trainRecord(data[0]), B: trainRecord(data[1]), Match: data[2]&1 != 0}
			all = append(all, p)
			if data[2]&2 == 0 {
				train = append(train, p)
			}
		}
		got, want := TrainMatcher(train, fz, nil), refTrainMatcher(train, fz, nil)
		if !reflect.DeepEqual(got.Model, want.Model) {
			t.Fatalf("featurizer %v: model %+v, reference %+v", fz.Attrs, got.Model, want.Model)
		}
		for _, p := range all {
			if g, w := got.Prob(p.A, p.B), want.Prob(p.A, p.B); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("featurizer %v, pair %v / %v: prob %v, reference %v", fz.Attrs, p.A, p.B, g, w)
			}
		}
	})
}

// TestTrainMatcherMatchesReferenceOnGeneratedPairs: on the generated
// training pairs of the dedup tests, in both featurizer modes.
func TestTrainMatcherMatchesReferenceOnGeneratedPairs(t *testing.T) {
	pairs := makeLabeledPairs(200, 5)
	for _, fz := range []Featurizer{{}, {Attrs: []string{"name", "city"}}} {
		got, want := TrainMatcher(pairs, fz, nil), refTrainMatcher(pairs, fz, nil)
		if !reflect.DeepEqual(got.Model, want.Model) {
			t.Fatalf("featurizer %v: models differ", fz.Attrs)
		}
		for _, p := range pairs {
			if g, w := got.Prob(p.A, p.B), want.Prob(p.A, p.B); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("featurizer %v: prob %v, reference %v", fz.Attrs, g, w)
			}
		}
	}
}
