package dedup_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dedup"
	"repro/internal/ml"
)

// TestConsolidationScalesInSources: over S generated sources, translated
// into one schema and blocked on the first four characters of SHOW_NAME as
// the pipeline blocks them, RunKeyed clusters the records as scoring every
// candidate pair does, while it scores fewer pairs than it meets: a pair
// already joined is skipped. It logs both counts.
func TestConsolidationScalesInSources(t *testing.T) {
	blocker := dedup.PrefixBlocker("SHOW_NAME", 4)
	for _, sources := range []int{20, 50, 100} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("S=%d/seed=%d", sources, seed), func(t *testing.T) {
				t.Parallel()
				matcher := dedup.TrainMatcher(trainingPairs(seed), dedup.Featurizer{Attrs: []string{"name", "SHOW_NAME", "city"}}, ml.NaiveBayesTrainer(5))
				records := translatedSources(t, seed, sources)
				keys := make([][]string, len(records))
				for i, r := range records {
					keys[i] = blocker(r)
				}
				d := &dedup.Deduper{Blocker: blocker, Matcher: matcher}
				res := d.RunKeyed(records, keys)
				got := make([][]int, len(res.Clusters))
				for i, c := range res.Clusters {
					got[i] = c.Members
				}
				if want := d.AllPairsMembers(records, keys); !reflect.DeepEqual(got, want) {
					t.Fatalf("%d clusters, scoring every pair gives %d: %v, want %v", len(got), len(want), got, want)
				}
				if res.Scored >= res.Candidates {
					t.Fatalf("scored %d of %d candidate pairs", res.Scored, res.Candidates)
				}
				t.Logf("%d records, %d clusters: %d candidate pairs, %d scored", len(records), len(got), res.Candidates, res.Scored)
			})
		}
	}
}
