package main

import (
	"strconv"
	"strings"
)

// samples is a Prometheus text exposition, parsed: every sample's value
// keyed by its name with the label block, as rendered.
type samples map[string]float64

// scrape parses the text format obs.Registry.Render writes.
func scrape(text string) samples {
	m := samples{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m
}

// sum adds up the samples called name over all their label sets.
func (m samples) sum(name string) float64 {
	var total float64
	for key, v := range m {
		if key == name || strings.HasPrefix(key, name+"{") {
			total += v
		}
	}
	return total
}
