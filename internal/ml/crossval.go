package ml

import (
	"fmt"
	"math/rand"
)

// CVResult aggregates a k-fold cross-validation run: the pooled confusion
// matrix and the per-fold matrices, matching the 10-fold protocol the paper
// reports 89/90 precision/recall under.
type CVResult struct {
	Folds  []Confusion
	Pooled Confusion
}

// MeanPrecision averages precision across folds.
func (r CVResult) MeanPrecision() float64 { return r.mean(Confusion.Precision) }

// MeanRecall averages recall across folds.
func (r CVResult) MeanRecall() float64 { return r.mean(Confusion.Recall) }

// MeanF1 averages F1 across folds.
func (r CVResult) MeanF1() float64 { return r.mean(Confusion.F1) }

func (r CVResult) mean(metric func(Confusion) float64) float64 {
	if len(r.Folds) == 0 {
		return 0
	}
	var sum float64
	for _, f := range r.Folds {
		sum += metric(f)
	}
	return sum / float64(len(r.Folds))
}

// String summarizes the run.
func (r CVResult) String() string {
	return fmt.Sprintf("%d-fold: precision=%.3f recall=%.3f f1=%.3f (pooled: %s)",
		len(r.Folds), r.MeanPrecision(), r.MeanRecall(), r.MeanF1(), r.Pooled)
}

// KFoldIndices partitions [0, n) into k shuffled folds of near-equal size.
// k is clamped to [2, n].
func KFoldIndices(n, k int, seed int64) [][]int {
	if k < 2 {
		k = 2
	}
	if k > n {
		k = n
	}
	if n <= 0 {
		return nil
	}
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	folds := make([][]int, k)
	for i, idx := range perm {
		folds[i%k] = append(folds[i%k], idx)
	}
	return folds
}

// CrossValidate runs k-fold cross-validation: for each fold it trains on the
// remaining folds and evaluates on the held-out fold.
func CrossValidate(train Trainer, examples []Example, k int, seed int64) CVResult {
	return CrossValidateTable(train, tableOf(examples), k, seed)
}

// CrossValidateTable is CrossValidate over the examples of a table, folded
// by row: a fold's training set is the other folds' cells, copied into one
// table reused from fold to fold.
func CrossValidateTable(train Trainer, t *Table, k int, seed int64) CVResult {
	held := make([]bool, len(t.ends))
	rest := Table{names: t.names, row: t.row}
	var res CVResult
	for _, fold := range KFoldIndices(len(t.ends), k, seed) {
		clear(held)
		for _, i := range fold {
			held[i] = true
		}
		rest.rows, rest.vals, rest.ends, rest.labels = rest.rows[:0], rest.vals[:0], rest.ends[:0], rest.labels[:0]
		for i := range t.ends {
			if !held[i] {
				rest.rows = append(rest.rows, t.rows[t.start(i):t.ends[i]]...)
				rest.vals = append(rest.vals, t.vals[t.start(i):t.ends[i]]...)
				rest.End(t.labels[i])
			}
		}
		conf := evaluateRows(train.TrainTable(&rest), t, fold)
		res.Folds = append(res.Folds, conf)
		res.Pooled.Add(conf)
	}
	return res
}

// evaluateRows is Evaluate over the examples of t at the given rows.
func evaluateRows(c Classifier, t *Table, rows []int) Confusion {
	examples := make([]Example, len(rows))
	for k, i := range rows {
		examples[k] = Example{Features: t.features(i), Label: t.labels[i]}
	}
	return Evaluate(c, examples)
}
