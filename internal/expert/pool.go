package expert

import (
	"fmt"
	"sort"
)

// Pool routes tasks to experts and tracks workload. The zero value is not
// usable; call NewPool.
type Pool struct {
	experts []Expert
	nextID  int
	pending []Task
	asked   map[string]int // questions per expert
	// RedundancyK is how many experts answer each task (default 3).
	RedundancyK int
}

// NewPool returns a pool over the given experts.
func NewPool(experts ...Expert) *Pool {
	return &Pool{experts: experts, asked: make(map[string]int), RedundancyK: 3}
}

// Experts returns the pool members.
func (p *Pool) Experts() []Expert { return p.experts }

// Submit enqueues a task and returns its assigned id.
func (p *Pool) Submit(t Task) int {
	p.nextID++
	t.ID = p.nextID
	p.pending = append(p.pending, t)
	return t.ID
}

// route returns the k most skilled experts for a domain, breaking ties by
// current workload (least-loaded first) then name.
func (p *Pool) route(domain string, k int) []Expert {
	sorted := append([]Expert(nil), p.experts...)
	sort.SliceStable(sorted, func(i, j int) bool {
		si, sj := sorted[i].Skill(domain), sorted[j].Skill(domain)
		if si != sj {
			return si > sj
		}
		li, lj := p.asked[sorted[i].Name()], p.asked[sorted[j].Name()]
		if li != lj {
			return li < lj
		}
		return sorted[i].Name() < sorted[j].Name()
	})
	if k > len(sorted) {
		k = len(sorted)
	}
	return sorted[:k]
}

// ProcessAll drains the queue: each task is routed to RedundancyK experts
// and aggregated. It returns the decisions in task order.
func (p *Pool) ProcessAll() ([]Decision, error) {
	if len(p.experts) == 0 {
		return nil, fmt.Errorf("expert: pool has no experts")
	}
	k := p.RedundancyK
	if k <= 0 {
		k = 3
	}
	var out []Decision
	for _, t := range p.pending {
		chosen := p.route(t.Domain, k)
		responses := make([]Response, 0, len(chosen))
		weights := make([]float64, 0, len(chosen))
		for _, e := range chosen {
			responses = append(responses, e.Answer(t))
			weights = append(weights, e.Skill(t.Domain))
			p.asked[e.Name()]++
		}
		out = append(out, Aggregate(responses, weights))
	}
	p.pending = nil
	return out, nil
}

// Asked reports how many questions the named expert has answered.
func (p *Pool) Asked(name string) int { return p.asked[name] }
