package ml

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// syntheticLinear generates a linearly separable-ish dataset: label is true
// when f1 + f2 > 1 with some label noise.
func syntheticLinear(n int, noise float64, seed int64) []Example {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Example, n)
	for i := range out {
		f1, f2 := rng.Float64(), rng.Float64()
		label := f1+f2 > 1
		if rng.Float64() < noise {
			label = !label
		}
		out[i] = Example{Features: Features{"f1": f1, "f2": f2}, Label: label}
	}
	return out
}

// syntheticText generates a bag-of-words dataset: positives mention "dup",
// negatives mention "distinct".
func syntheticText(n int, seed int64) []Example {
	rng := rand.New(rand.NewSource(seed))
	vocab := []string{"show", "theater", "price", "city", "date"}
	out := make([]Example, n)
	for i := range out {
		f := Features{}
		for j := 0; j < 4; j++ {
			f[vocab[rng.Intn(len(vocab))]]++
		}
		label := rng.Intn(2) == 0
		if label {
			f["dup"] = 1 + float64(rng.Intn(2))
		} else {
			f["distinct"] = 1 + float64(rng.Intn(2))
		}
		out[i] = Example{Features: f, Label: label}
	}
	return out
}

func TestNaiveBayesLearnsText(t *testing.T) {
	train := syntheticText(400, 1)
	test := syntheticText(200, 2)
	nb := TrainNaiveBayes(train)
	conf := Evaluate(nb, test)
	if acc := float64(conf.TP+conf.TN) / float64(len(test)); acc < 0.95 {
		t.Errorf("NB accuracy = %f: %s", acc, conf)
	}
}

func TestNaiveBayesUnseenFeatures(t *testing.T) {
	nb := TrainNaiveBayes(syntheticText(50, 3))
	p := nb.PredictProb(Features{"never-seen": 1})
	if math.IsNaN(p) || p < 0 || p > 1 {
		t.Errorf("unseen prob = %f", p)
	}
}

func TestNaiveBayesEmptyTraining(t *testing.T) {
	nb := TrainNaiveBayes(nil)
	if p := nb.PredictProb(Features{"x": 1}); math.IsNaN(p) {
		t.Errorf("empty-train prob = %f", p)
	}
}

func TestConfusionMetrics(t *testing.T) {
	c := Confusion{TP: 8, FP: 2, TN: 9, FN: 1}
	if got := c.Precision(); math.Abs(got-0.8) > 1e-9 {
		t.Errorf("precision = %f", got)
	}
	if got := c.Recall(); math.Abs(got-8.0/9.0) > 1e-9 {
		t.Errorf("recall = %f", got)
	}
	if c.F1() <= 0 || c.F1() > 1 {
		t.Errorf("f1 = %f", c.F1())
	}
	empty := Confusion{}
	if empty.Precision() != 1 || empty.Recall() != 1 {
		t.Error("degenerate precision/recall should be 1")
	}
}

func TestConfusionObserveAdd(t *testing.T) {
	var c Confusion
	c.Observe(true, true)
	c.Observe(true, false)
	c.Observe(false, true)
	c.Observe(false, false)
	if c.TP != 1 || c.FP != 1 || c.FN != 1 || c.TN != 1 {
		t.Errorf("confusion = %+v", c)
	}
	var d Confusion
	d.Add(c)
	d.Add(c)
	if d.TP != 2 || d.TN != 2 {
		t.Errorf("add = %+v", d)
	}
}

func TestKFoldIndicesPartition(t *testing.T) {
	folds := KFoldIndices(100, 10, 1)
	if len(folds) != 10 {
		t.Fatalf("folds = %d", len(folds))
	}
	seen := map[int]int{}
	for _, fold := range folds {
		if len(fold) != 10 {
			t.Errorf("fold size = %d", len(fold))
		}
		for _, idx := range fold {
			seen[idx]++
		}
	}
	if len(seen) != 100 {
		t.Errorf("indices covered = %d", len(seen))
	}
	for idx, n := range seen {
		if n != 1 {
			t.Errorf("index %d appears %d times", idx, n)
		}
	}
}

func TestKFoldIndicesEdge(t *testing.T) {
	if KFoldIndices(0, 10, 1) != nil {
		t.Error("n=0 should be nil")
	}
	folds := KFoldIndices(3, 10, 1) // k clamps to n
	if len(folds) != 3 {
		t.Errorf("clamped folds = %d", len(folds))
	}
	folds = KFoldIndices(10, 1, 1) // k clamps to 2
	if len(folds) != 2 {
		t.Errorf("min folds = %d", len(folds))
	}
}

func TestCrossValidate(t *testing.T) {
	examples := syntheticText(300, 9)
	res := CrossValidate(NaiveBayesTrainer(0), examples, 10, 1)
	if len(res.Folds) != 10 {
		t.Fatalf("folds = %d", len(res.Folds))
	}
	if res.MeanPrecision() < 0.9 || res.MeanRecall() < 0.9 {
		t.Errorf("cv = %s", res)
	}
	total := res.Pooled.TP + res.Pooled.FP + res.Pooled.TN + res.Pooled.FN
	if total != 300 {
		t.Errorf("pooled total = %d", total)
	}
}

func TestDiscretize(t *testing.T) {
	f := Discretize(Features{"sim": 0.72, "neg": -3, "big": 4}, 5)
	if len(f) != 3 {
		t.Fatalf("features = %v", f)
	}
	for name, v := range f {
		if v != 1 {
			t.Errorf("binarized value %s=%f", name, v)
		}
	}
	// 0.72 with 5 bins lands in bin 3.
	if _, ok := f["sim=3of5"]; !ok {
		t.Errorf("bin name missing: %v", f)
	}
	if _, ok := f["neg=0of5"]; !ok {
		t.Errorf("clamped low bin missing: %v", f)
	}
	if _, ok := f["big=4of5"]; !ok {
		t.Errorf("clamped high bin missing: %v", f)
	}
}

// Property: Discretize output always has values exactly 1 and preserves
// feature count.
func TestQuickDiscretize(t *testing.T) {
	f := func(vals []float64) bool {
		in := Features{}
		for i, v := range vals {
			in[string(rune('a'+i%26))+string(rune('0'+i/26%10))] = v
		}
		out := Discretize(in, 5)
		if len(out) != len(in) {
			return false
		}
		for _, v := range out {
			if v != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: NB probability is always within [0,1].
func TestQuickNBProbability(t *testing.T) {
	nb := TrainNaiveBayes(syntheticText(100, 11))
	f := func(names []string) bool {
		feats := Features{}
		for _, n := range names {
			if len(n) > 8 {
				n = n[:8]
			}
			feats[n] = 1
		}
		p := nb.PredictProb(feats)
		return p >= 0 && p <= 1 && !math.IsNaN(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkNaiveBayesPredict(b *testing.B) {
	nb := TrainNaiveBayes(syntheticText(500, 1))
	f := Features{"show": 1, "dup": 1, "price": 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		nb.PredictProb(f)
	}
}

// The discretizing naive Bayes resolved into a table must score what the
// model it is compiled from scores over Discretize'd features, by name and by
// pre-resolved row alike.
func TestBinnedNaiveBayesMatchesDiscretizedModel(t *testing.T) {
	examples := syntheticLinear(300, 0.05, 7)
	const bins = 5
	prepared := make([]Example, len(examples))
	for i, ex := range examples {
		prepared[i] = Example{Features: Discretize(ex.Features, bins), Label: ex.Label}
	}
	reference := TrainNaiveBayes(prepared)
	model, ok := NaiveBayesTrainer(bins)(examples).(Indexed)
	if !ok {
		t.Fatal("NaiveBayesTrainer(5) is not Indexed")
	}
	if model.Row("never seen") != -1 {
		t.Error("an unseen feature has a row")
	}
	for _, ex := range examples[:100] {
		f := Features{"never seen": 0.5, "out of range": 7, "negative": -1, "nan": math.NaN()}
		for name, v := range ex.Features {
			f[name] = v
		}
		var rows []int32
		var vals []float64
		for name, v := range f {
			rows = append(rows, model.Row(name))
			vals = append(vals, v)
		}
		want := reference.PredictProb(Discretize(f, bins))
		if got := model.PredictProb(f); math.Abs(got-want) > 1e-12 {
			t.Fatalf("PredictProb = %v, discretized model %v", got, want)
		}
		if got := model.PredictRows(rows, vals); math.Abs(got-want) > 1e-12 {
			t.Fatalf("PredictRows = %v, discretized model %v", got, want)
		}
		if a, b := model.PredictProb(f), model.PredictProb(f); a != b {
			t.Fatalf("PredictProb is not repeatable: %v then %v", a, b)
		}
	}
}
