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

// TestAppendDocsMatchesPutDoc: for every fragment of the corpora the
// pipeline ingests, the text writer's bytes are what PutDoc writes for the
// reference documents, InstanceDoc and EntityDocs.
func TestAppendDocsMatchesPutDoc(t *testing.T) {
	p := extract.NewParser()
	for seed := int64(1); seed <= 3; seed++ {
		frags := datagen.GenerateWebText(datagen.WebTextConfig{Fragments: 2000, Seed: seed, Gazetteer: p.Gazetteer()})
		for _, f := range frags {
			extract.CheckAppendDocsMatchesPutDoc(t, p, f.Text, f.URL)
		}
	}
}
