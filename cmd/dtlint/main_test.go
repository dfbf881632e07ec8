package main

import (
	"bytes"
	"go/ast"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/astq"
	"repro/internal/analysis/ctxcheck"
	"repro/internal/analysis/deadcheck"
	"repro/internal/analysis/load"
	"repro/internal/analysis/lockcheck"
)

var repo struct {
	once sync.Once
	pkgs []*analysis.Package
	err  error
}

// repoPackages is the root `./...` load, shared by the tests below.
func repoPackages(t *testing.T) []*analysis.Package {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the full dependency closure; skipped in -short")
	}
	repo.once.Do(func() { repo.pkgs, repo.err = load.Load("../..", "./...") })
	if repo.err != nil {
		t.Fatal(repo.err)
	}
	return repo.pkgs
}

// TestRepoIsClean is the gate the CI job enforces: both modules must lint
// clean. A finding here means either new code broke a project invariant or
// an analyzer grew a false positive — both block merging.
func TestRepoIsClean(t *testing.T) {
	findings, err := analysis.Run(repoPackages(t), All)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// TestNarrowLoadSkipsDeadcheck: deadcheck's roots live outside internal/,
// so a run over one internal package lints without it instead of calling
// the whole package dead, and asking for it there is a usage error.
func TestNarrowLoadSkipsDeadcheck(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", "../..", "./internal/btree"}, &stdout, &stderr); code != 0 {
		t.Fatalf("dtlint ./internal/btree exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if code := run([]string{"-C", "../..", "-run", "deadcheck", "./internal/btree"}, &stdout, &stderr); code != 2 {
		t.Fatalf("dtlint -run deadcheck ./internal/btree exit %d, want 2", code)
	}
}

// TestLoadIncludesNestedModules: a root `./...` load takes in the
// benchmark module, so deadcheck sees what the harness calls.
func TestLoadIncludesNestedModules(t *testing.T) {
	var bench []string
	for _, pkg := range repoPackages(t) {
		if pkg.PkgPath == "repro/benchmark" || strings.HasPrefix(pkg.PkgPath, "repro/benchmark/") {
			bench = append(bench, pkg.PkgPath)
		}
	}
	if len(bench) == 0 {
		t.Fatal("the root ./... load has no repro/benchmark package")
	}
}

// TestAllowlistsNameDeclarations: every allowlist entry names something
// that exists, so a rename or a deletion cannot leave a stale exemption.
func TestAllowlistsNameDeclarations(t *testing.T) {
	decls := make(map[string]bool)
	for _, pkg := range repoPackages(t) {
		decls[pkg.PkgPath] = true
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					decls[pkg.PkgPath+"."+astq.FuncKey(d)] = true
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						st, ok := ts.Type.(*ast.StructType)
						if !ok {
							continue
						}
						for _, field := range st.Fields.List {
							for _, name := range field.Names {
								decls[pkg.PkgPath+"."+ts.Name.Name+"."+name.Name] = true
							}
						}
					}
				}
			}
		}
	}
	for name, list := range map[string]map[string]string{
		"ctxcheck":  ctxcheck.Allowlist,
		"lockcheck": lockcheck.Allowlist,
		"deadcheck": deadcheck.Allowlist,
	} {
		for key := range list {
			if !decls[key] {
				t.Errorf("%s.Allowlist[%q] names no declaration", name, key)
			}
		}
	}
}

func TestListAnalyzers(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("dtlint -list exit %d: %s", code, stderr.String())
	}
	for _, name := range []string{"dterrcheck", "ctxcheck", "metriccheck", "lockcheck", "deadcheck"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output missing %s:\n%s", name, stdout.String())
		}
	}
}

func TestUnknownAnalyzerIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-run", "nosuchcheck"}, &stdout, &stderr); code != 2 {
		t.Fatalf("dtlint -run nosuchcheck exit %d, want 2", code)
	}
}
