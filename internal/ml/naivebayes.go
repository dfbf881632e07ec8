package ml

import "math"

// NaiveBayes is a multinomial naive Bayes binary classifier with Laplace
// smoothing. Feature values act as occurrence counts; use Discretize to
// feed it presence features.
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

// NaiveBayesTrainer adapts TrainNaiveBayes to the Trainer type. With bins > 0
// every feature value is discretized into that many bins over [0,1] (see
// Discretize) and the model is an Indexed table; 0 trains on raw features.
func NaiveBayesTrainer(bins int) Trainer {
	return func(examples []Example) Classifier {
		if bins > 0 {
			return trainBinnedNB(examples, bins)
		}
		return TrainNaiveBayes(examples)
	}
}

// binnedNB is naive Bayes over Discretize'd features with feature x bin
// resolved into a table at train time: prediction builds no "name=3of5"
// string and no map, and sums in a fixed order.
type binnedNB struct {
	bins               int
	names              []string // features seen in training, sorted
	row                map[string]int32
	priorPos, priorNeg float64
	pos, neg           []float64 // log P(feature in bin | class) at [row*bins+bin]
	defPos, defNeg     float64   // the same for a feature never seen, in any bin
}

func trainBinnedNB(examples []Example, bins int) *binnedNB {
	if bins < 2 {
		bins = 2 // as Discretize does
	}
	prepared := make([]Example, len(examples))
	for i, ex := range examples {
		prepared[i] = Example{Features: Discretize(ex.Features, bins), Label: ex.Label}
	}
	nb := TrainNaiveBayes(prepared)
	m := &binnedNB{
		bins:     bins,
		names:    featureNames(examples),
		priorPos: nb.logPriorPos, priorNeg: nb.logPriorNeg,
		defPos: nb.defaultPos, defNeg: nb.defaultNeg,
	}
	m.row = make(map[string]int32, len(m.names))
	for i, name := range m.names {
		m.row[name] = int32(i)
		for b := 0; b < bins; b++ {
			key := binName(name, b, bins)
			lp, ok := nb.likePos[key]
			ln := nb.likeNeg[key]
			if !ok {
				lp, ln = nb.defaultPos, nb.defaultNeg
			}
			m.pos = append(m.pos, lp)
			m.neg = append(m.neg, ln)
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
