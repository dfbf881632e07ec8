package expert

import "sort"

// Pool routes tasks to experts and tracks workload. The zero value is not
// usable; call NewPool.
type Pool struct {
	experts []Expert
	asked   map[string]int // questions per expert
}

// NewPool returns a pool over the given experts.
func NewPool(experts ...Expert) *Pool {
	return &Pool{experts: experts, asked: make(map[string]int)}
}

// Experts returns the pool members.
func (p *Pool) Experts() []Expert { return p.experts }

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

// Asked reports how many questions the named expert has answered.
func (p *Pool) Asked(name string) int { return p.asked[name] }
