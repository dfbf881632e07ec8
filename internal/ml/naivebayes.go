package ml

import (
	"math"
	"slices"
	"strings"
)

// NaiveBayes is a multinomial naive Bayes binary classifier with Laplace
// smoothing. Feature values act as occurrence counts.
type NaiveBayes struct {
	logPriorPos, logPriorNeg float64
	likePos, likeNeg         map[string]float64 // log P(feature|class)
	defaultPos, defaultNeg   float64            // smoothed log prob for unseen features
}

// TrainNaiveBayes fits a multinomial NB model.
func TrainNaiveBayes(examples []Example) *NaiveBayes {
	nb := &NaiveBayes{
		likePos: make(map[string]float64),
		likeNeg: make(map[string]float64),
	}
	var nPos, nNeg float64
	countPos := map[string]float64{}
	countNeg := map[string]float64{}
	var totPos, totNeg float64
	for _, ex := range examples {
		if ex.Label {
			nPos++
		} else {
			nNeg++
		}
		for name, v := range ex.Features {
			if v <= 0 {
				continue
			}
			if ex.Label {
				countPos[name] += v
				totPos += v
			} else {
				countNeg[name] += v
				totNeg += v
			}
		}
	}
	total := nPos + nNeg
	if total == 0 {
		total = 1
	}
	nb.logPriorPos = math.Log((nPos + 1) / (total + 2))
	nb.logPriorNeg = math.Log((nNeg + 1) / (total + 2))

	vocab := map[string]bool{}
	for name := range countPos {
		vocab[name] = true
	}
	for name := range countNeg {
		vocab[name] = true
	}
	v := float64(len(vocab))
	if v == 0 {
		v = 1
	}
	for name := range vocab {
		nb.likePos[name] = math.Log((countPos[name] + 1) / (totPos + v))
		nb.likeNeg[name] = math.Log((countNeg[name] + 1) / (totNeg + v))
	}
	nb.defaultPos = math.Log(1 / (totPos + v))
	nb.defaultNeg = math.Log(1 / (totNeg + v))
	return nb
}

// PredictProb implements Classifier.
func (nb *NaiveBayes) PredictProb(f Features) float64 {
	lp, ln := nb.logPriorPos, nb.logPriorNeg
	for name, v := range f {
		if v <= 0 {
			continue
		}
		if w, ok := nb.likePos[name]; ok {
			lp += v * w
		} else {
			lp += v * nb.defaultPos
		}
		if w, ok := nb.likeNeg[name]; ok {
			ln += v * w
		} else {
			ln += v * nb.defaultNeg
		}
	}
	return probFromLogs(lp, ln)
}

// probFromLogs converts the two class log scores to P(positive), guarding
// overflow.
func probFromLogs(lp, ln float64) float64 {
	d := ln - lp
	switch {
	case d > 500:
		return 0
	case d < -500:
		return 1
	default:
		return 1 / (1 + math.Exp(d))
	}
}

// NaiveBayesTrainer returns the naive Bayes Trainer. With bins > 0 every
// feature value is put in one of that many equal bins over [0,1] (at least
// two; values outside, and NaN, clamp), each (feature, bin) counts as one
// occurrence, and the model is an Indexed table; 0 trains TrainNaiveBayes
// on the raw features.
func NaiveBayesTrainer(bins int) Trainer {
	switch {
	case bins <= 0:
		bins = 0
	case bins < 2:
		bins = 2
	}
	return nbTrainer{bins: bins}
}

type nbTrainer struct{ bins int }

// Train implements Trainer: a binned model resolves the names to rows and
// counts the table.
func (tr nbTrainer) Train(examples []Example) Classifier {
	if tr.bins == 0 {
		return TrainNaiveBayes(examples)
	}
	return trainBinnedNB(tableOf(examples), tr.bins)
}

// TrainTable implements Trainer.
func (tr nbTrainer) TrainTable(t *Table) Classifier {
	if tr.bins == 0 {
		return TrainNaiveBayes(t.examples())
	}
	return trainBinnedNB(t, tr.bins)
}

// binnedNB is naive Bayes over binned features with feature x bin resolved
// into a table: prediction builds no name and no map, and sums in a fixed
// order.
type binnedNB struct {
	bins               int
	names              []string // features seen in training, sorted
	row                map[string]int32
	priorPos, priorNeg float64
	pos, neg           []float64 // log P(feature in bin | class) at [row*bins+bin]
	defPos, defNeg     float64   // the same for a feature never seen, in any bin
}

// trainBinnedNB fits the multinomial model TrainNaiveBayes fits to the
// examples with each (feature, bin) as one occurrence, by counting the
// cells of each (row, bin, class). Counts are sums of ones, exact in any
// order. A (feature, bin) never seen has count zero, and its smoothed
// log-likelihood is the default's.
func trainBinnedNB(t *Table, bins int) *binnedNB {
	cells := len(t.names) * bins
	count := make([]float64, 2*cells) // negatives, then positives
	var n, tot [2]float64
	for i, end := range t.ends {
		c := 0
		if t.labels[i] {
			c = 1
		}
		n[c]++
		for k := t.start(i); k < end; k++ {
			count[c*cells+int(t.rows[k])*bins+binOf(t.vals[k], bins)]++
			tot[c]++
		}
	}
	// The vocabulary is every (feature, bin) seen; the features are those
	// with one seen, sorted.
	var vocab float64
	var seen []int32
	for r := range t.names {
		used := false
		for k := r * bins; k < (r+1)*bins; k++ {
			if count[k] > 0 || count[cells+k] > 0 {
				vocab++
				used = true
			}
		}
		if used {
			seen = append(seen, int32(r))
		}
	}
	slices.SortFunc(seen, func(a, b int32) int { return strings.Compare(t.names[a], t.names[b]) })
	if vocab == 0 {
		vocab = 1
	}
	total := n[0] + n[1]
	if total == 0 {
		total = 1
	}
	m := &binnedNB{
		bins:     bins,
		names:    make([]string, len(seen)),
		row:      make(map[string]int32, len(seen)),
		priorPos: math.Log((n[1] + 1) / (total + 2)), priorNeg: math.Log((n[0] + 1) / (total + 2)),
		defPos: math.Log(1 / (tot[1] + vocab)), defNeg: math.Log(1 / (tot[0] + vocab)),
		pos: make([]float64, 0, len(seen)*bins), neg: make([]float64, 0, len(seen)*bins),
	}
	for i, r := range seen {
		m.names[i] = t.names[r]
		m.row[m.names[i]] = int32(i)
		for k := int(r) * bins; k < int(r+1)*bins; k++ {
			m.pos = append(m.pos, math.Log((count[cells+k]+1)/(tot[1]+vocab)))
			m.neg = append(m.neg, math.Log((count[k]+1)/(tot[0]+vocab)))
		}
	}
	return m
}

// term is one feature's contribution to the two class log scores; a negative
// row is a feature the model never saw.
func (m *binnedNB) term(row int32, v float64) (pos, neg float64) {
	if row < 0 {
		return m.defPos, m.defNeg
	}
	k := int(row)*m.bins + binOf(v, m.bins)
	return m.pos[k], m.neg[k]
}

// PredictProb implements Classifier. Known features are summed in the
// model's order; the ones it never saw all weigh the same.
func (m *binnedNB) PredictProb(f Features) float64 {
	lp, ln := m.priorPos, m.priorNeg
	known := 0
	for i, name := range m.names {
		if v, ok := f[name]; ok {
			known++
			pos, neg := m.term(int32(i), v)
			lp += pos
			ln += neg
		}
	}
	unseen := float64(len(f) - known)
	return probFromLogs(lp+unseen*m.defPos, ln+unseen*m.defNeg)
}

// Row implements Indexed.
func (m *binnedNB) Row(name string) int32 {
	if r, ok := m.row[name]; ok {
		return r
	}
	return -1
}

// PredictRows implements Indexed.
func (m *binnedNB) PredictRows(rows []int32, vals []float64) float64 {
	lp, ln := m.priorPos, m.priorNeg
	for i, r := range rows {
		pos, neg := m.term(r, vals[i])
		lp += pos
		ln += neg
	}
	return probFromLogs(lp, ln)
}
