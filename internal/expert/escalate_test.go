package expert

import "testing"

func TestEscalationLowConfidenceWidensPanel(t *testing.T) {
	// Three mediocre experts disagree often; two more strong ones exist.
	pool := NewPool(
		NewSimulated("m1", 0.55, nil, 21),
		NewSimulated("m2", 0.55, nil, 22),
		NewSimulated("m3", 0.55, nil, 23),
		NewSimulated("s1", 0.52, nil, 24),
		NewSimulated("s2", 0.52, nil, 25),
	)
	pool.RedundancyK = 3
	escalated := 0
	const n = 100
	for i := 0; i < n; i++ {
		res, err := pool.ProcessWithEscalation(
			Task{Domain: "d", Truth: "yes", Options: []string{"yes", "no"}},
			EscalationPolicy{MinConfidence: 0.9},
		)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds < 1 || res.Rounds > 2 {
			t.Fatalf("rounds = %d", res.Rounds)
		}
		if res.Escalated {
			escalated++
		}
	}
	if escalated == 0 {
		t.Error("no task escalated despite noisy experts and a 0.9 floor")
	}
}

func TestEscalationConfidentFirstRound(t *testing.T) {
	pool := NewPool(
		NewSimulated("a", 0.99, nil, 31),
		NewSimulated("b", 0.99, nil, 32),
		NewSimulated("c", 0.99, nil, 33),
	)
	res, err := pool.ProcessWithEscalation(
		Task{Domain: "d", Truth: "yes", Options: []string{"yes", "no"}},
		EscalationPolicy{MinConfidence: 0.7},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Escalated || res.Rounds != 1 {
		t.Errorf("confident task escalated: %+v", res)
	}
	if res.Decision.Answer != "yes" {
		t.Errorf("answer = %q", res.Decision.Answer)
	}
}

func TestEscalationEmptyPool(t *testing.T) {
	pool := NewPool()
	if _, err := pool.ProcessWithEscalation(Task{}, EscalationPolicy{}); err == nil {
		t.Error("expected error with no experts")
	}
}
