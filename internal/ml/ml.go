// Package ml implements the from-scratch machine-learning substrate the
// paper's dedup/cleaning classifier is built on: sparse feature vectors,
// binned naive Bayes, k-fold cross-validation, and precision/recall
// metrics.
package ml

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

// Trainer builds a classifier from labeled examples, given as feature maps
// or as a Table; the same examples either way give the same classifier.
type Trainer interface {
	Train(examples []Example) Classifier
	TrainTable(t *Table) Classifier
}

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

// binOf is the bin of v among bins equal bins over [0,1]; values outside,
// NaN and the infinities included, clamp. (A value of 1 or more is not
// multiplied out: past 2^63 the product has no int.)
func binOf(v float64, bins int) int {
	if !(v > 0) {
		return 0
	}
	if v < 1 {
		if b := int(v * float64(bins)); b < bins {
			return b
		}
	}
	return bins - 1
}
