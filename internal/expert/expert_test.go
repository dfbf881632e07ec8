package expert

import (
	"slices"
	"testing"
)

func TestSimulatedSkillLookup(t *testing.T) {
	e := NewSimulated("alice", 0.6, map[string]float64{"broadway": 0.95}, 1)
	if e.Skill("broadway") != 0.95 {
		t.Errorf("domain skill = %f", e.Skill("broadway"))
	}
	if e.Skill("unknown") != 0.6 {
		t.Errorf("default skill = %f", e.Skill("unknown"))
	}
	if e.Name() != "alice" {
		t.Errorf("name = %q", e.Name())
	}
}

func TestSimulatedAccuracyConverges(t *testing.T) {
	e := NewSimulated("bob", 0.9, nil, 42)
	task := Task{Domain: "d", Truth: "yes", Options: []string{"yes", "no"}}
	correct := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if e.Answer(task).Answer == "yes" {
			correct++
		}
	}
	acc := float64(correct) / n
	if acc < 0.85 || acc > 0.95 {
		t.Errorf("empirical accuracy = %f, want ~0.9", acc)
	}
}

func TestSimulatedNoOptionsCorrupts(t *testing.T) {
	e := NewSimulated("low", 0.0, nil, 7)
	r := e.Answer(Task{Domain: "d", Truth: "t"})
	if r.Answer == "t" {
		t.Error("zero-skill expert with no options should corrupt truth")
	}
}

func TestAggregateMajority(t *testing.T) {
	d := Aggregate([]Response{
		{Expert: "a", Answer: "X", SelfConfidence: 0.9},
		{Expert: "b", Answer: "X", SelfConfidence: 0.8},
		{Expert: "c", Answer: "Y", SelfConfidence: 0.9},
	}, nil)
	if d.Answer != "X" {
		t.Errorf("answer = %q", d.Answer)
	}
	if d.Confidence <= 0.5 || d.Confidence >= 1 {
		t.Errorf("confidence = %f", d.Confidence)
	}
}

func TestAggregateWeightsFlip(t *testing.T) {
	responses := []Response{
		{Expert: "novice1", Answer: "wrong", SelfConfidence: 0.9},
		{Expert: "novice2", Answer: "wrong", SelfConfidence: 0.9},
		{Expert: "guru", Answer: "right", SelfConfidence: 0.9},
	}
	// Without weights the two novices win.
	if d := Aggregate(responses, nil); d.Answer != "wrong" {
		t.Errorf("unweighted = %q", d.Answer)
	}
	// Skill weights flip the outcome.
	if d := Aggregate(responses, []float64{0.2, 0.2, 0.99}); d.Answer != "right" {
		t.Errorf("weighted = %q", d.Answer)
	}
}

func TestAggregateEmptyAndZeroConfidence(t *testing.T) {
	d := Aggregate(nil, nil)
	if d.Answer != "" || d.Confidence != 0 {
		t.Errorf("empty aggregate = %+v", d)
	}
	d = Aggregate([]Response{{Expert: "a", Answer: "X", SelfConfidence: 0}}, nil)
	if d.Answer != "X" {
		t.Errorf("zero-confidence vote lost: %+v", d)
	}
}

func TestPoolRoutingPrefersSkill(t *testing.T) {
	guru := NewSimulated("guru", 0.5, map[string]float64{"broadway": 0.99}, 1)
	novice := NewSimulated("novice", 0.5, map[string]float64{"broadway": 0.55}, 2)
	other := NewSimulated("other", 0.5, map[string]float64{"broadway": 0.97}, 3)
	third := NewSimulated("third", 0.5, map[string]float64{"broadway": 0.98}, 4)
	p := NewPool(guru, novice, other, third)
	res, err := p.ProcessWithEscalation(Task{Domain: "broadway", Options: []string{"yes", "no"}, Truth: "yes"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 || len(res.Decision.Responses) != panelSize {
		t.Fatalf("one round of %d experts answered %+v", panelSize, res)
	}
	if p.Asked("guru") != 1 || p.Asked("third") != 1 || p.Asked("other") != 1 || p.Asked("novice") != 0 {
		t.Errorf("routing: guru=%d third=%d other=%d novice=%d", p.Asked("guru"), p.Asked("third"), p.Asked("other"), p.Asked("novice"))
	}
}

// TestPoolRoutingBreaksTiesByLoad: among equally skilled experts the
// least-loaded answers first, then the first by name.
func TestPoolRoutingBreaksTiesByLoad(t *testing.T) {
	p := NewPool(NewSimulated("c", 0.8, nil, 1), NewSimulated("a", 0.8, nil, 2), NewSimulated("b", 0.8, nil, 3))
	var order []string
	for range 4 {
		e := p.route("d", 1)[0]
		p.asked[e.Name()]++
		order = append(order, e.Name())
	}
	if want := []string{"a", "b", "c", "a"}; !slices.Equal(order, want) {
		t.Errorf("answered by %v, want %v", order, want)
	}
}

func TestPoolHighSkillMajorityUsuallyRight(t *testing.T) {
	experts := []Expert{
		NewSimulated("a", 0.9, nil, 11),
		NewSimulated("b", 0.9, nil, 12),
		NewSimulated("c", 0.9, nil, 13),
	}
	p := NewPool(experts...)
	const n = 200
	right := 0
	for i := 0; i < n; i++ {
		res, err := p.ProcessWithEscalation(Task{Domain: "d", Truth: "match", Options: []string{"match", "distinct"}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Decision.Answer == "match" {
			right++
		}
	}
	// 3 experts at 0.9: majority correct ~0.97.
	if float64(right)/n < 0.93 {
		t.Errorf("majority accuracy = %f", float64(right)/n)
	}
}

func TestPoolNoExperts(t *testing.T) {
	p := NewPool()
	if _, err := p.ProcessWithEscalation(Task{}); err == nil {
		t.Error("expected error with no experts")
	}
}
