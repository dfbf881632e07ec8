package dedup

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/record"
)

func rec(source string, fields map[string]string) *record.Record {
	r := record.New()
	r.Source = source
	for k, v := range fields {
		r.Set(k, record.Infer(v))
	}
	return r
}

func TestUnionFindBasics(t *testing.T) {
	uf := NewUnionFind(5)
	if n := len(uf.Clusters()); n != 5 {
		t.Fatalf("sets = %d", n)
	}
	if !uf.Union(0, 1) || !uf.Union(1, 2) {
		t.Fatal("fresh unions should return true")
	}
	if uf.Union(0, 2) {
		t.Error("redundant union should return false")
	}
	if uf.Find(0) != uf.Find(2) || uf.Find(0) == uf.Find(3) {
		t.Error("connectivity wrong")
	}
	clusters := uf.Clusters()
	if len(clusters) != 3 {
		t.Fatalf("clusters = %v", clusters)
	}
	if len(clusters[0]) != 3 {
		t.Errorf("first cluster = %v", clusters[0])
	}
}

// Property: after unioning a random sequence, sharing a Find is an
// equivalence relation consistent with the cluster count.
func TestQuickUnionFindInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		const n = 20
		uf := NewUnionFind(n)
		merges := 0
		for _, op := range ops {
			x, y := int(op)%n, int(op/256)%n
			if uf.Union(x, y) {
				merges++
			}
		}
		if len(uf.Clusters()) != n-merges {
			return false
		}
		connected := func(x, y int) bool { return uf.Find(x) == uf.Find(y) }
		// Reflexive, symmetric, transitive spot checks.
		for i := 0; i < n; i++ {
			if !connected(i, i) {
				return false
			}
		}
		for i := 0; i < n-2; i++ {
			if connected(i, i+1) && connected(i+1, i+2) && !connected(i, i+2) {
				return false
			}
			if connected(i, i+1) != connected(i+1, i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPrefixBlockerKeys(t *testing.T) {
	b := PrefixBlocker("name", 3)
	keys := b(rec("s", map[string]string{"name": "The Walking Dead"}))
	if len(keys) != 2 {
		t.Fatalf("keys = %v", keys)
	}
	if keys[0] != "p:the" {
		t.Errorf("prefix key = %q", keys[0])
	}
	// Word-order swap shares the initials key.
	keys2 := b(rec("s", map[string]string{"name": "Walking Dead, The"}))
	if keys[1] != keys2[1] {
		t.Errorf("initials keys differ: %q vs %q", keys[1], keys2[1])
	}
	if got := b(rec("s", map[string]string{"other": "x"})); got != nil {
		t.Errorf("missing attr keys = %v", got)
	}
}

func TestCandidatePairsBlocking(t *testing.T) {
	records := []*record.Record{
		rec("a", map[string]string{"name": "Matilda"}),
		rec("b", map[string]string{"name": "Matilda the Musical"}),
		rec("c", map[string]string{"name": "Wicked"}),
		rec("d", map[string]string{"name": "Mat of Honor"}),
	}
	pairs := CandidatePairs(records, PrefixBlocker("name", 3), 0)
	// mat* block: records 0,1,3 -> 3 pairs; wicked alone.
	if len(pairs) != 3 {
		t.Fatalf("pairs = %v", pairs)
	}
	for _, p := range pairs {
		if p.I >= p.J {
			t.Errorf("unordered pair %v", p)
		}
		if p.I == 2 || p.J == 2 {
			t.Errorf("wicked should not pair: %v", p)
		}
	}
}

func TestCandidatePairsMaxBlock(t *testing.T) {
	var records []*record.Record
	for i := 0; i < 20; i++ {
		records = append(records, rec("s", map[string]string{"name": fmt.Sprintf("same prefix %d", i)}))
	}
	if got := CandidatePairs(records, PrefixBlocker("name", 3), 5); len(got) != 0 {
		t.Errorf("capped block should yield no pairs, got %d", len(got))
	}
}

func TestFeaturizer(t *testing.T) {
	fz := Featurizer{}
	a := rec("s1", map[string]string{"name": "The Shubert Theatre", "city": "New York", "price": "27"})
	b := rec("s2", map[string]string{"name": "Shubert Theater", "city": "New York", "price": "29"})
	f := fz.Features(a, b)
	if f["tok:city"] != 1 {
		t.Errorf("city token sim = %f", f["tok:city"])
	}
	if f["jw:name"] < 0.5 {
		t.Errorf("name jw = %f", f["jw:name"])
	}
	if f["num:price"] <= 0.8 {
		t.Errorf("price closeness = %f", f["num:price"])
	}
	if f["sharedFrac"] != 1 {
		t.Errorf("sharedFrac = %f", f["sharedFrac"])
	}
	if f["exactFrac"] <= 0 || f["exactFrac"] >= 1 {
		t.Errorf("exactFrac = %f", f["exactFrac"])
	}
}

func TestFeaturizerDisjointAttrs(t *testing.T) {
	fz := Featurizer{}
	f := fz.Features(rec("a", map[string]string{"x": "1"}), rec("b", map[string]string{"y": "2"}))
	if len(f) != 0 {
		t.Errorf("disjoint features = %v", f)
	}
}

// makeLabeledPairs builds a synthetic dup/non-dup training set over show
// records with typo noise.
func makeLabeledPairs(n int, seed int64) []LabeledPair {
	rng := rand.New(rand.NewSource(seed))
	names := []string{"Matilda", "Wicked", "Chicago", "Goodfellas", "The Wolverine", "Raging Bull", "Once", "Pippin", "Newsies", "Annie"}
	cities := []string{"New York", "Boston", "Chicago", "London"}
	var pairs []LabeledPair
	for i := 0; i < n; i++ {
		name := names[rng.Intn(len(names))]
		city := cities[rng.Intn(len(cities))]
		a := rec("s1", map[string]string{"name": name, "city": city})
		if rng.Intn(2) == 0 {
			// Duplicate with surface noise.
			noisy := name
			if rng.Intn(2) == 0 && len(name) > 4 {
				noisy = name[:len(name)-1]
			}
			b := rec("s2", map[string]string{"name": noisy, "city": city})
			pairs = append(pairs, LabeledPair{A: a, B: b, Match: true})
		} else {
			other := names[rng.Intn(len(names))]
			for other == name {
				other = names[rng.Intn(len(names))]
			}
			b := rec("s2", map[string]string{"name": other, "city": cities[rng.Intn(len(cities))]})
			pairs = append(pairs, LabeledPair{A: a, B: b, Match: false})
		}
	}
	return pairs
}

func TestTrainMatcherSeparates(t *testing.T) {
	train := makeLabeledPairs(400, 1)
	m := TrainMatcher(train, Featurizer{}, nil)
	test := makeLabeledPairs(200, 2)
	correct := 0
	for _, p := range test {
		if m.Match(p.A, p.B) == p.Match {
			correct++
		}
	}
	acc := float64(correct) / float64(len(test))
	if acc < 0.9 {
		t.Errorf("matcher accuracy = %f", acc)
	}
}

func TestDeduperRun(t *testing.T) {
	m := TrainMatcher(makeLabeledPairs(400, 3), Featurizer{}, nil)
	records := []*record.Record{
		rec("s1", map[string]string{"name": "Matilda", "city": "New York"}),
		rec("s2", map[string]string{"name": "Matild", "city": "New York"}),
		rec("s3", map[string]string{"name": "Wicked", "city": "New York"}),
	}
	d := &Deduper{Blocker: PrefixBlocker("name", 3), Matcher: m}
	clusters := d.Run(records)
	if len(clusters) != 2 {
		t.Fatalf("clusters = %d: %+v", len(clusters), clusters)
	}
	var big *Cluster
	for i := range clusters {
		if len(clusters[i].Members) == 2 {
			big = &clusters[i]
		}
	}
	if big == nil {
		t.Fatal("no merged cluster")
	}
	if got := big.Record.GetString("name"); got != "Matilda" {
		t.Errorf("consolidated name = %q (longest raw should win)", got)
	}
	if big.Record.Source != "s1+s2" {
		t.Errorf("consolidated source = %q", big.Record.Source)
	}
}

func TestConsolidateMajority(t *testing.T) {
	records := []*record.Record{
		rec("a", map[string]string{"city": "New York"}),
		rec("b", map[string]string{"city": "New York"}),
		rec("c", map[string]string{"city": "Boston"}),
	}
	out := Consolidate(records)
	if got := out.GetString("city"); got != "New York" {
		t.Errorf("majority = %q", got)
	}
}

func TestConsolidateEdgeCases(t *testing.T) {
	if got := Consolidate(nil); got.Len() != 0 {
		t.Errorf("empty consolidate = %v", got)
	}
	single := rec("s", map[string]string{"a": "1"})
	out := Consolidate([]*record.Record{single})
	if !slices.Equal(out.Fields(), single.Fields()) {
		t.Errorf("single consolidate = %v", out)
	}
	out.Set("a", record.Int(9))
	if single.GetString("a") != "1" {
		t.Error("consolidate must clone")
	}
}

func TestConsolidateNullsSkipped(t *testing.T) {
	a := record.New()
	a.Set("x", record.Null)
	b := record.New()
	b.Set("x", record.String("value"))
	out := Consolidate([]*record.Record{a, b})
	if got := out.GetString("x"); got != "value" {
		t.Errorf("null handling = %q", got)
	}
}

func BenchmarkCandidatePairsBlocked(b *testing.B) {
	var records []*record.Record
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		records = append(records, rec("s", map[string]string{"name": fmt.Sprintf("entity %d %d", rng.Intn(50), i)}))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CandidatePairs(records, PrefixBlocker("name", 4), 0)
	}
}

// The allocation budget of the pair loop: once two records are profiled,
// scoring and classifying the pair builds no string, map or slice.
func TestPairScoreAllocatesNothing(t *testing.T) {
	records := []*record.Record{
		rec("s1", map[string]string{"name": "The Shubert Theatre", "city": "New York", "price": "27"}),
		rec("s2", map[string]string{"name": "Shubert Theater", "city": "New York", "price": "29"}),
	}
	for _, fz := range []Featurizer{{Attrs: []string{"name", "city"}}, {}} {
		scores := TrainMatcher(makeLabeledPairs(200, 5), fz, nil).over(records)
		scores.prob(0, 1) // grows the reused vector
		if n := testing.AllocsPerRun(100, func() { scores.prob(0, 1) }); n != 0 {
			t.Errorf("Featurizer%v: scoring a profiled pair allocates %v times, want 0", fz, n)
		}
	}
}
