package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of sorted by linear interpolation between
// the two closest ranks, so quantile(s, 0.5) is the usual median.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// samplesBeyond is how many of n samples lie above the q-quantile's rank.
func samplesBeyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// tailCandidates are the percentiles a timing may be reported at.
var tailCandidates = []float64{0.99, 0.95, 0.90, 0.75}

// supportedTail is the highest candidate percentile with at least ten of n
// samples beyond it, or 0 when the sample supports none of them.
func supportedTail(n int) float64 {
	for _, q := range tailCandidates {
		if samplesBeyond(n, q) >= 10 {
			return q
		}
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
