package extract_test

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/extract"
)

// TestParseMatchesReference compares Parse with the reference parser on
// the corpora the pipeline ingests.
func TestParseMatchesReference(t *testing.T) {
	p := extract.NewParser()
	for seed := int64(1); seed <= 3; seed++ {
		frags := datagen.GenerateWebText(datagen.WebTextConfig{Fragments: 2000, Seed: seed, Gazetteer: p.Gazetteer()})
		for _, f := range frags {
			extract.CheckParseMatchesReference(t, p, f.Text)
		}
	}
}
