// Package ml implements the from-scratch machine-learning substrate the
// paper's dedup/cleaning classifier is built on: sparse feature vectors,
// binned naive Bayes, k-fold cross-validation, and precision/recall
// metrics.
package ml

import "sort"

// Features is a sparse feature vector keyed by feature name.
type Features map[string]float64

// Example is one labeled training or evaluation instance.
type Example struct {
	Features Features
	Label    bool
}

// Classifier scores instances; Predict thresholds the score at 0.5.
type Classifier interface {
	// PredictProb returns the probability (or calibrated score in [0,1])
	// that the instance is positive.
	PredictProb(f Features) float64
}

// Predict applies the standard 0.5 threshold.
func Predict(c Classifier, f Features) bool { return c.PredictProb(f) >= 0.5 }

// Trainer builds a classifier from examples.
type Trainer func(examples []Example) Classifier

// Indexed is a Classifier that can also score a vector whose feature names
// were resolved to model rows ahead of time, so that a caller scoring many
// vectors over a fixed feature set builds no map and no name per vector.
type Indexed interface {
	Classifier
	// Row returns the model's row for a feature name, or -1 for a feature
	// the model never saw.
	Row(name string) int32
	// PredictRows is PredictProb over the features rows[i] with values
	// vals[i], summed in the order given.
	PredictRows(rows []int32, vals []float64) float64
}

// featureNames returns the sorted feature names present in the examples,
// for deterministic iteration.
func featureNames(examples []Example) []string {
	seen := map[string]bool{}
	for _, ex := range examples {
		for name := range ex.Features {
			seen[name] = true
		}
	}
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Discretize buckets each feature value into bins over [0,1], emitting
// presence features like "sim:name=3of5". Values outside [0,1] clamp.
// It is how continuous similarity features feed the multinomial NB model.
func Discretize(f Features, bins int) Features {
	if bins < 2 {
		bins = 2
	}
	out := make(Features, len(f))
	for name, v := range f {
		out[binName(name, binOf(v, bins), bins)] = 1
	}
	return out
}

// binOf is the bin of v among bins equal bins over [0,1]; values outside,
// and NaN, clamp.
func binOf(v float64, bins int) int {
	if !(v > 0) {
		return 0
	}
	if b := int(v * float64(bins)); b < bins {
		return b
	}
	return bins - 1
}

func binName(name string, b, bins int) string {
	return name + "=" + string(rune('0'+b)) + "of" + string(rune('0'+bins))
}
