package expert

import "fmt"

// Escalation: low-confidence decisions are re-asked with a wider expert
// panel before being accepted — the guard Data Tamer applies before letting
// crowd answers mutate the global schema.

// EscalationPolicy controls when and how a decision escalates.
type EscalationPolicy struct {
	// MinConfidence is the vote-share floor below which a decision
	// escalates (default 0.7).
	MinConfidence float64
	// EscalatedK is the panel size on the second round (default: all
	// experts).
	EscalatedK int
	// MaxRounds bounds the number of escalation rounds (default 2).
	MaxRounds int
}

func (p EscalationPolicy) withDefaults(poolSize int) EscalationPolicy {
	if p.MinConfidence == 0 {
		p.MinConfidence = 0.7
	}
	if p.EscalatedK <= 0 {
		p.EscalatedK = poolSize
	}
	if p.MaxRounds <= 0 {
		p.MaxRounds = 2
	}
	return p
}

// EscalationResult records how a task resolved under escalation.
type EscalationResult struct {
	Decision Decision
	Rounds   int
	// Escalated is true when at least one extra round ran.
	Escalated bool
}

// ProcessWithEscalation answers one task: the RedundancyK most skilled
// experts for its domain vote, and while the confidence stays below the
// policy floor a wider panel votes again. MaxRounds: 1 asks one panel once.
func (p *Pool) ProcessWithEscalation(t Task, policy EscalationPolicy) (EscalationResult, error) {
	if len(p.experts) == 0 {
		return EscalationResult{}, fmt.Errorf("expert: pool has no experts")
	}
	policy = policy.withDefaults(len(p.experts))
	k := p.RedundancyK
	if k <= 0 {
		k = 3
	}
	var res EscalationResult
	for round := 1; round <= policy.MaxRounds; round++ {
		res.Rounds = round
		panel := p.route(t.Domain, k)
		responses := make([]Response, 0, len(panel))
		weights := make([]float64, 0, len(panel))
		for _, e := range panel {
			responses = append(responses, e.Answer(t))
			weights = append(weights, e.Skill(t.Domain))
			p.asked[e.Name()]++
		}
		res.Decision = Aggregate(responses, weights)
		if res.Decision.Confidence >= policy.MinConfidence {
			break
		}
		if round < policy.MaxRounds {
			res.Escalated = true
			k = policy.EscalatedK
		}
	}
	return res, nil
}
