package expert

import "fmt"

// Escalation: low-confidence decisions are re-asked with a wider expert
// panel before being accepted — the guard Data Tamer applies before letting
// crowd answers mutate the global schema.
const (
	// panelSize is how many experts answer a task's first round.
	panelSize = 3
	// minConfidence is the vote-share floor below which a decision
	// escalates; the second round asks every expert of the pool.
	minConfidence = 0.7
	// maxRounds bounds the rounds a task is asked in.
	maxRounds = 2
)

// EscalationResult records how a task resolved under escalation.
type EscalationResult struct {
	Decision Decision
	Rounds   int
	// Escalated is true when at least one extra round ran.
	Escalated bool
}

// ProcessWithEscalation answers one task: the three most skilled experts
// for its domain vote, and when the winning answer's share of the vote is
// below 0.7 the whole pool votes again.
func (p *Pool) ProcessWithEscalation(t Task) (EscalationResult, error) {
	if len(p.experts) == 0 {
		return EscalationResult{}, fmt.Errorf("expert: pool has no experts")
	}
	k := panelSize
	var res EscalationResult
	for round := 1; round <= maxRounds; round++ {
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
		if res.Decision.Confidence >= minConfidence {
			break
		}
		if round < maxRounds {
			res.Escalated = true
			k = len(p.experts)
		}
	}
	return res, nil
}
