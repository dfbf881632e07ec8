package ml

import "fmt"

// Confusion is a binary confusion matrix.
type Confusion struct {
	TP, FP, TN, FN int
}

// Add accumulates another confusion matrix.
func (c *Confusion) Add(o Confusion) {
	c.TP += o.TP
	c.FP += o.FP
	c.TN += o.TN
	c.FN += o.FN
}

// Observe records one prediction.
func (c *Confusion) Observe(predicted, actual bool) {
	switch {
	case predicted && actual:
		c.TP++
	case predicted && !actual:
		c.FP++
	case !predicted && actual:
		c.FN++
	default:
		c.TN++
	}
}

// Precision is TP / (TP + FP); 1 when no positives were predicted.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 1
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall is TP / (TP + FN); 1 when there were no actual positives.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 1
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 is the harmonic mean of precision and recall.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// String renders the matrix with derived metrics.
func (c Confusion) String() string {
	return fmt.Sprintf("tp=%d fp=%d tn=%d fn=%d precision=%.3f recall=%.3f f1=%.3f",
		c.TP, c.FP, c.TN, c.FN, c.Precision(), c.Recall(), c.F1())
}

// Evaluate runs the classifier over the examples and returns the confusion
// matrix.
func Evaluate(c Classifier, examples []Example) Confusion {
	var conf Confusion
	for _, ex := range examples {
		conf.Observe(Predict(c, ex.Features), ex.Label)
	}
	return conf
}
