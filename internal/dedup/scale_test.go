package dedup_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dedup"
	"repro/internal/ml"
	"repro/internal/record"
)

// consolidationInput is S generated sources translated into one schema,
// blocked on the first four characters of SHOW_NAME as the pipeline blocks
// them, and what the Deduper core runs over them returns.
func consolidationInput(t *testing.T, seed int64, sources int) (*dedup.Deduper, []*record.Record, [][]string, dedup.Consolidation) {
	blocker := dedup.PrefixBlocker("SHOW_NAME", 4)
	matcher := dedup.TrainMatcher(trainingPairs(seed), dedup.Featurizer{Attrs: []string{"name", "SHOW_NAME", "city"}}, ml.NaiveBayesTrainer(5))
	records := translatedSources(t, seed, sources)
	keys := make([][]string, len(records))
	for i, r := range records {
		keys[i] = blocker(r)
	}
	d := &dedup.Deduper{Blocker: blocker, Matcher: matcher}
	res := d.RunKeyed(records, keys, nil)
	if res.Scored > res.Candidates {
		t.Fatalf("scored %d of %d candidate pairs", res.Scored, res.Candidates)
	}
	t.Logf("S = %d: %d records, %d clusters: %d candidate pairs, %d scored", sources, len(records), len(res.Clusters), res.Candidates, res.Scored)
	return d, records, keys, res
}

// TestConsolidationScalesInSources: over S generated sources, RunKeyed
// clusters the records as scoring every candidate pair does, up to S = 100.
// At S = 200, where that reference scores about two million pairs, only
// the count is checked: the pairs RunKeyed scores follow the distinct
// values, not the records, so at most twice those of S = 20 at one seed.
func TestConsolidationScalesInSources(t *testing.T) {
	for _, sources := range []int{20, 50, 100, 200} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("S=%d/seed=%d", sources, seed), func(t *testing.T) {
				t.Parallel()
				d, records, keys, res := consolidationInput(t, seed, sources)
				if sources == 200 {
					_, _, _, small := consolidationInput(t, seed, 20)
					if res.Scored > 2*small.Scored {
						t.Fatalf("scored %d pairs at S = 200, %d at S = 20", res.Scored, small.Scored)
					}
					return
				}
				got := make([][]int, len(res.Clusters))
				for i, c := range res.Clusters {
					got[i] = c.Members
				}
				if want := d.AllPairsMembers(records, keys); !reflect.DeepEqual(got, want) {
					t.Fatalf("%d clusters, scoring every pair gives %d: %v, want %v", len(got), len(want), got, want)
				}
			})
		}
	}
}
