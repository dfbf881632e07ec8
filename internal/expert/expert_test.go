package expert

import (
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
	other := NewSimulated("other", 0.5, map[string]float64{"broadway": 0.60}, 3)
	p := NewPool(guru, novice, other)
	p.RedundancyK = 2
	p.Submit(Task{Kind: TaskSchemaMatch, Domain: "broadway", Question: "venue == theater?", Options: []string{"yes", "no"}, Truth: "yes"})
	decisions, err := p.ProcessAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(decisions) != 1 {
		t.Fatalf("decisions = %d", len(decisions))
	}
	if p.Asked("guru") != 1 || p.Asked("other") != 1 || p.Asked("novice") != 0 {
		t.Errorf("routing: guru=%d other=%d novice=%d", p.Asked("guru"), p.Asked("other"), p.Asked("novice"))
	}
	if len(p.pending) != 0 {
		t.Error("queue not drained")
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
	for i := 0; i < n; i++ {
		p.Submit(Task{Kind: TaskDedupPair, Domain: "d", Truth: "match", Options: []string{"match", "distinct"}})
	}
	decisions, err := p.ProcessAll()
	if err != nil {
		t.Fatal(err)
	}
	right := 0
	for _, d := range decisions {
		if d.Answer == "match" {
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
	p.Submit(Task{})
	if _, err := p.ProcessAll(); err == nil {
		t.Error("expected error with no experts")
	}
}

func TestTaskKindString(t *testing.T) {
	if TaskSchemaMatch.String() != "schema-match" || TaskDedupPair.String() != "dedup-pair" || TaskCleanValue.String() != "clean-value" {
		t.Error("kind names wrong")
	}
}
