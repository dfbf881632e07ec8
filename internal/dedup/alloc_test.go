//go:build !race

// The race detector makes sync.Pool drop a quarter of what it is given, so
// an allocation count means nothing under it.

package dedup_test

import (
	"testing"

	"repro/internal/dedup"
	"repro/internal/ml"
)

// Training pays per distinct value, not per pair: the 600 training pairs
// repeated four times hold no value the 600 do not, and cost at most a
// few more allocations (the growth of the training table's slabs).
func TestTrainMatcherAllocatesPerDistinctValue(t *testing.T) {
	fz := dedup.Featurizer{Attrs: []string{"name", "SHOW_NAME", "city"}}
	pairs := trainingPairs(1)
	var repeated []dedup.LabeledPair
	for range 4 {
		repeated = append(repeated, pairs...)
	}
	once := testing.AllocsPerRun(5, func() { dedup.TrainMatcher(pairs, fz, ml.NaiveBayesTrainer(5)) })
	four := testing.AllocsPerRun(5, func() { dedup.TrainMatcher(repeated, fz, ml.NaiveBayesTrainer(5)) })
	t.Logf("%v allocations for %d pairs, %v for %d", once, len(pairs), four, len(repeated))
	if four > once+8 {
		t.Errorf("training on the pairs four times over allocates %v times, once %v", four, once)
	}
}
