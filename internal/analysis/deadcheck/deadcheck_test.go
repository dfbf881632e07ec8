package deadcheck_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/deadcheck"
)

func TestReachability(t *testing.T) {
	const key = "dead/internal/support"
	if _, ok := deadcheck.Allowlist[key]; ok {
		t.Fatalf("allowlist already has %q", key)
	}
	deadcheck.Allowlist[key] = "fixture"
	t.Cleanup(func() { delete(deadcheck.Allowlist, key) })
	analysistest.Run(t, "testdata", deadcheck.Analyzer, "dead/internal/lib", "dead/internal/support", "dead/app")
}
