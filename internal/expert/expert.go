// Package expert implements Data Tamer's expert-sourcing mechanism: tasks
// that need human judgment (uncertain schema matches, borderline duplicate
// pairs) are routed to domain experts, answered, and aggregated by
// confidence-weighted vote. Experts here are simulated workers with
// per-domain accuracy, which exercises the full routing/aggregation
// protocol deterministically.
package expert

import (
	"math/rand"
	"sort"
)

// Task is one question for the expert pool.
type Task struct {
	Domain  string   // routing key, e.g. "broadway", "schema"
	Options []string // candidate answers (first is the system's suggestion)
	// Truth is the hidden correct answer used by simulated experts; a real
	// deployment would not carry it.
	Truth string
}

// Response is one expert's answer to a task.
type Response struct {
	Expert string
	Answer string
	// SelfConfidence is the expert's stated confidence in [0,1].
	SelfConfidence float64
}

// Expert answers tasks.
type Expert interface {
	// Name identifies the expert.
	Name() string
	// Skill reports the expert's accuracy estimate for a domain in [0,1].
	Skill(domain string) float64
	// Answer produces a response for the task.
	Answer(t Task) Response
}

// Simulated is a simulated domain expert: it answers correctly with
// probability Skill(domain), otherwise uniformly among the wrong options.
type Simulated struct {
	ExpertName string
	// Accuracy maps domain -> accuracy; DefaultAccuracy covers the rest.
	Accuracy        map[string]float64
	DefaultAccuracy float64
	rng             *rand.Rand
}

// NewSimulated builds a simulated expert with a deterministic seed.
func NewSimulated(name string, defaultAccuracy float64, accuracy map[string]float64, seed int64) *Simulated {
	if accuracy == nil {
		accuracy = map[string]float64{}
	}
	return &Simulated{
		ExpertName:      name,
		Accuracy:        accuracy,
		DefaultAccuracy: defaultAccuracy,
		rng:             rand.New(rand.NewSource(seed)),
	}
}

// Name implements Expert.
func (s *Simulated) Name() string { return s.ExpertName }

// Skill implements Expert.
func (s *Simulated) Skill(domain string) float64 {
	if a, ok := s.Accuracy[domain]; ok {
		return a
	}
	return s.DefaultAccuracy
}

// Answer implements Expert.
func (s *Simulated) Answer(t Task) Response {
	skill := s.Skill(t.Domain)
	answer := t.Truth
	if s.rng.Float64() >= skill {
		// Wrong answer: pick uniformly among other options (or corrupt the
		// truth when no options are given).
		var wrong []string
		for _, o := range t.Options {
			if o != t.Truth {
				wrong = append(wrong, o)
			}
		}
		if len(wrong) > 0 {
			answer = wrong[s.rng.Intn(len(wrong))]
		} else {
			answer = t.Truth + "?"
		}
	}
	// Stated confidence fluctuates around true skill.
	conf := skill + (s.rng.Float64()-0.5)*0.1
	if conf < 0 {
		conf = 0
	}
	if conf > 1 {
		conf = 1
	}
	return Response{Expert: s.ExpertName, Answer: answer, SelfConfidence: conf}
}

// Decision is the aggregated outcome of a task.
type Decision struct {
	Answer     string
	Confidence float64 // weight share of the winning answer
	Responses  []Response
}

// Aggregate combines responses by confidence-weighted vote; expert skill (if
// provided per response order via weights) multiplies stated confidence.
func Aggregate(responses []Response, weights []float64) Decision {
	votes := map[string]float64{}
	var total float64
	for i, r := range responses {
		w := r.SelfConfidence
		if weights != nil && i < len(weights) {
			w *= weights[i]
		}
		if w <= 0 {
			w = 1e-6
		}
		votes[r.Answer] += w
		total += w
	}
	best, bestW := "", -1.0
	keys := make([]string, 0, len(votes))
	for k := range votes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if votes[k] > bestW {
			best, bestW = k, votes[k]
		}
	}
	conf := 0.0
	if total > 0 {
		conf = bestW / total
	}
	return Decision{Answer: best, Confidence: conf, Responses: responses}
}
