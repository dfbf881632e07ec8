package datatamer

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite README.md's cost tables from the runs under docs/traces/")

// README's cost tables are rendered from benchmark runs committed under
// docs/traces/, one pair of runs per workload, and pinned here: a table
// whose figures differ from its runs, or whose runs differ from the files
// it was rendered from, fails. scripts/readme-traces.sh makes new runs and
// re-renders the tables with -update.

const traceDir = "docs/traces"

// readmeWords bounds README.md: it describes the system as it is; the
// history is CHANGES.md's.
const readmeWords = 4000

// costTable matches one rendered table: its opening marker names the
// workload and the digests of the two runs it was rendered from.
var costTable = regexp.MustCompile(`(?s)<!-- cost-table (\w+) [^>]*-->\n.*?<!-- /cost-table -->`)

func TestREADMECostTables(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	bench := readBenchmarkSpec(t)
	var tables []string
	got := costTable.ReplaceAllFunc(readme, func(block []byte) []byte {
		w := string(costTable.FindSubmatch(block)[1])
		tables = append(tables, w)
		want, err := renderCostTable(w, bench)
		if err != nil {
			t.Errorf("%s: %v", w, err)
			return block
		}
		if !*update && string(block) != want {
			t.Errorf("README's %s cost table is not what docs/traces renders (go test -run TestREADMECostTables -update . rewrites it):\n--- README\n%s\n--- rendered\n%s", w, block, want)
		}
		return []byte(want)
	})
	if n := len(strings.Fields(string(got))); n > readmeWords {
		t.Errorf("README.md is %d words, more than %d", n, readmeWords)
	}
	if !slices.Equal(tables, bench.workloads) {
		t.Errorf("README has cost tables for %v, want one per workload of BENCHMARK.json in its order: %v", tables, bench.workloads)
	}
	if *update && !bytes.Equal(got, readme) {
		if err := os.WriteFile("README.md", got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// benchSpec is what the tables read from BENCHMARK.json: the workloads and
// the per-layer metrics, each in its declared order.
type benchSpec struct {
	workloads []string
	perLayer  []string
}

func readBenchmarkSpec(t *testing.T) benchSpec {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	for _, w := range doc.Workloads {
		s.workloads = append(s.workloads, w.Name)
	}
	for _, m := range doc.PerLayer {
		s.perLayer = append(s.perLayer, m.Name)
	}
	return s
}

// traceRun is one committed run: the header lines the script wrote above the
// harness's output, the closing JSON line, and the digest of the file.
type traceRun struct {
	file    string
	tree    string
	machine string
	digest  string
	result  struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
}

// readTrace reads docs/traces/<w>-seed1-trace<trace>.txt and checks that it
// holds the run its name says, and that the run passed its output checks.
func readTrace(w string, trace int) (*traceRun, error) {
	r := &traceRun{file: filepath.Join(traceDir, fmt.Sprintf("%s-seed1-trace%d.txt", w, trace))}
	raw, err := os.ReadFile(r.file)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(raw)
	r.digest = hex.EncodeToString(sum[:6])
	var last string
	header := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if k, v, ok := strings.Cut(strings.TrimPrefix(line, "# "), ": "); ok && strings.HasPrefix(line, "# ") {
			header[k] = v
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if want := fmt.Sprintf("bash benchmark/run.sh --workload %s --seed 1 --trace %d", w, trace); header["run"] != want {
		return nil, fmt.Errorf("%s: run %q, want %q", r.file, header["run"], want)
	}
	r.tree, r.machine = header["tree"], header["machine"]
	if r.tree == "" || r.machine == "" {
		return nil, fmt.Errorf("%s: no tree or machine line", r.file)
	}
	if err := json.Unmarshal([]byte(last), &r.result); err != nil {
		return nil, fmt.Errorf("%s: closing line: %v", r.file, err)
	}
	if !r.result.Correct || r.result.Failed != 0 || r.result.Attempted == 0 {
		return nil, fmt.Errorf("%s: correct %v, %d of %d ops failed", r.file, r.result.Correct, r.result.Failed, r.result.Attempted)
	}
	return r, nil
}

// metric renders one metric of the run with its unit.
func (r *traceRun) metric(name string) (string, error) {
	m, ok := r.result.Metrics[name]
	if !ok {
		return "", fmt.Errorf("%s reports no %s", r.file, name)
	}
	if m.Unit == "count" {
		return formatFigure(m.Value), nil
	}
	return formatFigure(m.Value) + " " + m.Unit, nil
}

// formatFigure writes an integer in full and anything else to three
// significant figures, with no fewer than zero decimals.
func formatFigure(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	decimals := 2 - int(math.Floor(math.Log10(math.Abs(v))))
	return fmt.Sprintf("%.*f", max(decimals, 0), v)
}

// readRoutes are the routes a page view reads; for each, the per-layer
// metrics <layer>.<route>_p50_ms make one row of the route table.
var (
	readRoutes = []string{"show", "find_eq", "find_prefix", "find_scan", "find_and", "top", "cheapest", "types", "stats"}
	readLayers = []string{"client", "serve", "core", "store"}
)

// renderCostTable renders workload w's table from its two committed runs:
// the end-to-end metrics of the --trace 0 run, then every per-layer metric
// of the --trace 1 run that does not read 0 — the p50 of each read route
// as one table of routes by layer, the rest in BENCHMARK.json's order.
func renderCostTable(w string, bench benchSpec) (string, error) {
	e2e, err := readTrace(w, 0)
	if err != nil {
		return "", err
	}
	layers, err := readTrace(w, 1)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "<!-- cost-table %s %s %s -->\n", w, e2e.digest, layers.digest)
	fmt.Fprintf(&b, "`%s`, seed 1, tree `%s`, on %s. End to end, `--trace 0`, %d ops:\n\n", w, e2e.tree, e2e.machine, e2e.result.Attempted)
	b.WriteString("| `setup_s` | `alloc_kb_per_op` | `peak_rss_mb` |\n|---|---|---|\n")
	for i, name := range []string{"setup_s", "alloc_kb_per_op", "peak_rss_mb"} {
		v, err := e2e.metric(name)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "| %s ", v)
		if i == 2 {
			b.WriteString("|\n")
		}
	}
	if layers.tree != e2e.tree || layers.machine != e2e.machine {
		fmt.Fprintf(&b, "\nThe `--trace 1` run: tree `%s`, on %s.\n", layers.tree, layers.machine)
	}
	nonzero := func(name string) bool { return layers.result.Metrics[name].Value != 0 }
	inGrid := map[string]bool{}
	var grid strings.Builder
	for _, route := range readRoutes {
		row, any := "| `"+route+"` |", false
		for _, layer := range readLayers {
			name := layer + "." + route + "_p50_ms"
			inGrid[name] = true
			cell := "—"
			if nonzero(name) {
				cell, any = formatFigure(layers.result.Metrics[name].Value), true
			}
			row += " " + cell + " |"
		}
		if any {
			grid.WriteString(row + "\n")
		}
	}
	fmt.Fprintf(&b, "\nPer layer, `--trace 1`, %d ops", layers.result.Attempted)
	if grid.Len() > 0 {
		b.WriteString("; each read route's p50 in ms:\n\n| route | client | serve | core | store |\n|---|---|---|---|---|\n")
		b.WriteString(grid.String())
	} else {
		b.WriteString(":\n")
	}
	b.WriteString("\n| metric | value |\n|---|---|\n")
	// Metrics that read 0 belong to layers the workload does not reach, and
	// the harness's own (harness.*) describe the run, not the system.
	for _, name := range bench.perLayer {
		if inGrid[name] || !nonzero(name) || strings.HasPrefix(name, "harness.") {
			continue
		}
		v, err := layers.metric(name)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "| `%s` | %s |\n", name, v)
	}
	b.WriteString("<!-- /cost-table -->")
	return b.String(), nil
}
