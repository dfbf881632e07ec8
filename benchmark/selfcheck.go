package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the self-check reads: the
// bound each end-to-end metric may worsen by.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSelfcheck measures the benchmark's own repeatability the way its
// consumer does: every workload `runs` times in each of two sets A and B,
// interleaved pass by pass (A B A B ...) so that machine drift hits both,
// run k of both sets with seed cfg.seed+k. For every end-to-end metric it
// prints each set's median and quartiles, the spread (interquartile range
// over median) and the gap by which B's median is worse than A's. It fails
// when a gap exceeds half the metric's bound or a spread, set-up time
// excepted, exceeds the bound.
func runSelfcheck(cfg config, runs int, out io.Writer) error {
	if runs < 2 {
		return fmt.Errorf("-runs must be at least 2")
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("the self-check runs from the repository root: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}

	// values[workload][metric][set] lists one value per run.
	values := map[string]map[string][2][]float64{}
	for k := 0; k < runs; k++ {
		for set := 0; set < 2; set++ {
			for _, w := range workloads {
				res, err := runChild(exe, w.name, cfg.seed+int64(k), cfg.seconds, cfg.outDir)
				if err != nil {
					return fmt.Errorf("%s run %d of set %c: %w", w.name, k, 'A'+set, err)
				}
				if !res.Correct || res.Failed > 0 {
					return fmt.Errorf("%s run %d of set %c: %d of %d ops failed", w.name, k, 'A'+set, res.Failed, res.Attempted)
				}
				if values[w.name] == nil {
					values[w.name] = map[string][2][]float64{}
				}
				for name, m := range res.Metrics {
					sets := values[w.name][name]
					sets[set] = append(sets[set], m.Value)
					values[w.name][name] = sets
				}
			}
		}
	}

	fmt.Fprintf(out, "%d runs per set and workload, seeds %d to %d, %g s measured per run, sets interleaved A B A B.\n\n",
		runs, cfg.seed, cfg.seed+int64(runs)-1, cfg.seconds)
	fmt.Fprintf(out, "- nproc %d, GOMAXPROCS %d, GOGC %q, %s %s/%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0),
		os.Getenv("GOGC"), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(out, "- CPU: %s\n\n", cpuModel())

	var failures []string
	for _, w := range workloads {
		fmt.Fprintf(out, "### %s\n\n", w.name)
		fmt.Fprintln(out, "| metric | bound | A median [q1, q3] | A spread | B median [q1, q3] | B spread | gap B vs A |")
		fmt.Fprintln(out, "|---|---|---|---|---|---|---|")
		for _, m := range bf.EndToEnd {
			sets := values[w.name][m.Name]
			a, b := summarize(sets[0]), summarize(sets[1])
			gap := (b.median - a.median) / a.median
			if m.Better == "higher" {
				gap = -gap
			}
			fmt.Fprintf(out, "| %s | %.0f %% | %.4g [%.4g, %.4g] | %.2f %% | %.4g [%.4g, %.4g] | %.2f %% | %+.2f %% |\n",
				m.Name, m.Bound*100, a.median, a.q1, a.q3, a.spread*100, b.median, b.q1, b.q3, b.spread*100, gap*100)
			if gap > m.Bound/2 {
				failures = append(failures, fmt.Sprintf("%s/%s: gap %.2f %% exceeds half the bound %.0f %%", w.name, m.Name, gap*100, m.Bound*100))
			}
			if spread := max(a.spread, b.spread); m.Name != "setup_s" && spread > m.Bound {
				failures = append(failures, fmt.Sprintf("%s/%s: spread %.2f %% exceeds the bound %.0f %%", w.name, m.Name, spread*100, m.Bound*100))
			}
		}
		fmt.Fprintln(out)
	}
	if len(failures) > 0 {
		return fmt.Errorf("not repeatable within the bounds:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Fprintln(out, "Every gap is within half its bound and every spread within its bound.")
	return nil
}

// runChild runs one end-to-end run in a process of its own, as set-up time
// and peak memory are per process, and parses its last output line.
func runChild(exe, workload string, seed int64, seconds float64, outDir string) (result, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0", "-out", outDir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("last output line: %w", err)
	}
	return res, nil
}

// summary is a set's median, quartiles and spread. The quartiles are the
// exclusive-method ones Python's statistics.quantiles(values, n=4) gives.
type summary struct{ median, q1, q3, spread float64 }

func summarize(v []float64) summary {
	s := sortedCopy(v)
	s3 := summary{median: quantile(s, 0.5), q1: exclusiveQuantile(s, 0.25), q3: exclusiveQuantile(s, 0.75)}
	s3.spread = (s3.q3 - s3.q1) / s3.median
	return s3
}

// exclusiveQuantile interpolates at position q*(n+1), clamped to the sample.
func exclusiveQuantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	pos := q*float64(n+1) - 1
	lo := min(max(int(pos), 0), n-1)
	hi := min(lo+1, n-1)
	frac := min(max(pos-float64(lo), 0), 1)
	return sorted[lo] + (sorted[hi]-sorted[lo])*frac
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}
