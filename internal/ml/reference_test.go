package ml

// Binned naive Bayes as it was fitted before it counted (row, bin, class)
// cells: every example Discretize'd into a map of "name=3of5" presence
// features, the raw multinomial model fitted over those maps, and the
// model's log-likelihoods looked up by bin name into the table. The
// reference bodies are verbatim but for names.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

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

func binName(name string, b, bins int) string {
	return name + "=" + string(rune('0'+b)) + "of" + string(rune('0'+bins))
}

// refTrainNaiveBayes fits a multinomial NB model.
func refTrainNaiveBayes(examples []Example) *NaiveBayes {
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

func refTrainBinnedNB(examples []Example, bins int) *binnedNB {
	if bins < 2 {
		bins = 2 // as Discretize does
	}
	prepared := make([]Example, len(examples))
	for i, ex := range examples {
		prepared[i] = Example{Features: Discretize(ex.Features, bins), Label: ex.Label}
	}
	nb := refTrainNaiveBayes(prepared)
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

// sameModel fails unless two binned models hold the same names, rows and
// bins, and priors, defaults and tables equal to the bit.
func sameModel(t *testing.T, what string, got, want *binnedNB) {
	t.Helper()
	if got.bins != want.bins || !reflect.DeepEqual(got.names, want.names) || !reflect.DeepEqual(got.row, want.row) {
		t.Fatalf("%s: bins %d, names %q, rows %v; reference %d, %q, %v", what, got.bins, got.names, got.row, want.bins, want.names, want.row)
	}
	bits := func(fs ...float64) []uint64 {
		out := make([]uint64, len(fs))
		for i, f := range fs {
			out[i] = math.Float64bits(f)
		}
		return out
	}
	if g, w := bits(got.priorPos, got.priorNeg, got.defPos, got.defNeg), bits(want.priorPos, want.priorNeg, want.defPos, want.defNeg); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: priors and defaults %v, reference %v", what, g, w)
	}
	if g, w := bits(got.pos...), bits(want.pos...); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: positive table %v, reference %v", what, got.pos, want.pos)
	}
	if g, w := bits(got.neg...), bits(want.neg...); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: negative table %v, reference %v", what, got.neg, want.neg)
	}
}

// checkBinned fits examples through the map entry and through a Table
// built with every value first set to NaN and then overwritten, and
// requires both to be the reference's model.
func checkBinned(t *testing.T, examples []Example, bins int) {
	t.Helper()
	want := refTrainBinnedNB(examples, bins)
	got, ok := NaiveBayesTrainer(bins).Train(examples).(*binnedNB)
	if !ok {
		t.Fatalf("NaiveBayesTrainer(%d) trains no binned model", bins)
	}
	sameModel(t, "map examples", got, want)

	var tb Table
	for _, ex := range examples {
		for _, name := range featureNames([]Example{ex}) {
			tb.Set(tb.Row(name), math.NaN())
		}
		for _, name := range featureNames([]Example{ex}) {
			tb.Set(tb.Row(name), ex.Features[name])
		}
		tb.End(ex.Label)
	}
	tb.Row("never set")
	got, ok = NaiveBayesTrainer(bins).TrainTable(&tb).(*binnedNB)
	if !ok {
		t.Fatalf("NaiveBayesTrainer(%d) trains no binned model from a table", bins)
	}
	sameModel(t, "table", got, want)
}

func TestBinnedCountsMatchReference(t *testing.T) {
	for bins := 1; bins <= 9; bins++ {
		checkBinned(t, syntheticLinear(300, 0.05, int64(bins)), bins)
	}
	checkBinned(t, nil, 5)
	checkBinned(t, []Example{{Label: true}, {Features: Features{}}}, 5)
}

// fuzzNames are the feature names a fuzzed example draws from: one that
// ends like a bin name, and one that is a prefix of another.
var fuzzNames = []string{"jw:name", "tri:name", "a=1of5", "a", "ab", "sharedFrac"}

// fuzzValue reads a feature value from a byte: the first eight are NaN,
// negatives, zeros, one, above one and the infinities; the rest step
// through [0, 1.24).
func fuzzValue(b byte) float64 {
	special := []float64{math.NaN(), -1, math.Copysign(0, -1), 0, 1, 1.5, math.Inf(1), math.Inf(-1)}
	if int(b) < len(special) {
		return special[b]
	}
	return float64(b-8) / 200
}

// FuzzBinnedCountsMatchesReference: over map examples with NaN, negative
// and above-one values, at 2 to 9 bins, the counting core fits the model
// Discretize and the raw trainer fit, to the bit. The first byte picks the
// bins; then each example is a byte whose bit 7 is its label and whose low
// bits count its features, each a name byte and a value byte.
func FuzzBinnedCountsMatchesReference(f *testing.F) {
	f.Add([]byte{3, 0x82, 0, 50, 1, 208, 0x01, 2, 0, 0x00})
	f.Add([]byte{0, 0x83, 0, 0, 3, 1, 5, 7, 0x02, 0, 6, 1, 2})
	f.Add([]byte{7, 0x81, 4, 120, 0x81, 4, 121, 0x01, 4, 122, 0x02, 3, 100, 2, 100})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 200 {
			return
		}
		bins := 2 + int(data[0])%8
		var examples []Example
		for data = data[1:]; len(data) > 0; {
			head := data[0]
			data = data[1:]
			ex := Example{Features: Features{}, Label: head&0x80 != 0}
			for n := int(head & 7); n > 0 && len(data) >= 2; n-- {
				ex.Features[fuzzNames[int(data[0])%len(fuzzNames)]] = fuzzValue(data[1])
				data = data[2:]
			}
			examples = append(examples, ex)
		}
		t.Run(fmt.Sprint(bins), func(t *testing.T) { checkBinned(t, examples, bins) })
	})
}

// refCrossValidate is CrossValidate as it was before it folded a table by
// row: every fold splits the feature maps, trains on one split and scores
// the other through PredictProb.
func refCrossValidate(train Trainer, examples []Example, k int, seed int64) CVResult {
	folds := KFoldIndices(len(examples), k, seed)
	var res CVResult
	for i := range folds {
		holdout := map[int]bool{}
		for _, idx := range folds[i] {
			holdout[idx] = true
		}
		var trainSet, testSet []Example
		for idx, ex := range examples {
			if holdout[idx] {
				testSet = append(testSet, ex)
			} else {
				trainSet = append(trainSet, ex)
			}
		}
		model := train.Train(trainSet)
		conf := Evaluate(model, testSet)
		res.Folds = append(res.Folds, conf)
		res.Pooled.Add(conf)
	}
	return res
}

// TestCrossValidateMatchesReference: folding a table by row gives every
// fold's confusion matrix the map path gave, at 2 to 9 bins, over examples
// some of whose features only a held-out fold holds, and over the fuzz
// target's NaN, negative and above-one values.
func TestCrossValidateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	examples := syntheticLinear(400, 0.1, 3)
	for i := range examples {
		if rng.Intn(20) == 0 {
			examples[i].Features[fuzzNames[rng.Intn(len(fuzzNames))]] = fuzzValue(byte(rng.Intn(256)))
		}
	}
	for bins := 2; bins <= 9; bins++ {
		for _, k := range []int{2, 10, 400} {
			want := refCrossValidate(NaiveBayesTrainer(bins), examples, k, int64(bins))
			if got := CrossValidate(NaiveBayesTrainer(bins), examples, k, int64(bins)); !reflect.DeepEqual(got, want) {
				t.Fatalf("%d bins, %d folds: %v\nwant %v", bins, k, got, want)
			}
		}
	}
}
