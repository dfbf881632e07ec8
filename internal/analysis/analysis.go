// Package analysis is the project's static-analysis framework: a small,
// dependency-free mirror of the golang.org/x/tools/go/analysis API
// (Analyzer, Pass, Diagnostic) plus the driver that runs analyzers over
// type-checked packages and applies suppression directives. It exists
// because this repository's correctness rests on conventions no generic
// tool checks, and the build environment is hermetic — x/tools cannot be
// fetched — so the five project analyzers are written against this
// API-compatible shim instead. Porting them to the real go/analysis is a
// mechanical import swap.
//
// The enforced invariants, and the PR that introduced each:
//
//   - dterrcheck (PR 2 introduced the dterr taxonomy): every error
//     returned by an exported function in a boundary package (the repro
//     facade, internal/serve, client, internal/cluster) must be
//     constructed or wrapped via dterr so the /v1 envelope and the
//     cluster wire protocol carry its true code, and a *dterr.Error may
//     never be compared by message string.
//
//   - ctxcheck (PR 2 threaded context through every query path): no
//     context.Background()/context.TODO() outside main packages, tests,
//     and the documented allowlist; a function that receives a ctx must
//     forward that ctx (not a fresh Background, and not a legacy
//     non-context sibling when a *Ctx variant exists); context.Context
//     must not be stored in struct fields.
//
//   - metriccheck (PR 6 introduced internal/obs): every metric family
//     registered in internal/obs has a compile-time-constant name
//     matching ^dt_[a-z0-9_]+$ and constant label names; label values at
//     With() call sites must not derive from raw request data or error
//     strings (unbounded cardinality); a family may not be redeclared
//     with a different kind or label set — the mistake that today only
//     panics at runtime.
//
//   - lockcheck (PR 5's WAL ack path depends on this discipline): in
//     internal/store and internal/cluster, no I/O, channel send, or
//     cross-package call while holding a sync.Mutex/RWMutex, unless the
//     function is on the documented allowlist.
//
//   - deadcheck (added with the deletion of the library nothing ran):
//     every top-level declaration under internal/ is reachable from
//     non-test code outside internal/ (the facade, client, commands,
//     examples and the benchmark harness), an init, a package-level var
//     whose initializer calls a function, or an allowlisted test-support
//     package. It is the one whole-program analyzer: it reports from
//     Analyzer.Finish.
//
// Findings are suppressed with a directive on the flagged line or the
// line above it:
//
//	//lint:dtlint-allow <analyzer> <reason>
//
// The reason is mandatory; a directive without one is itself a finding,
// as is a directive that suppresses nothing. Run the suite with
//
//	go run ./cmd/dtlint ./...
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one static check. The fields mirror
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in findings and suppression
	// directives. It must be a valid Go identifier.
	Name string

	// Doc is the analyzer's help text: first line a one-sentence summary,
	// then the full description of the invariant it enforces.
	Doc string

	// Run applies the analyzer to one package, reporting findings through
	// pass.Reportf.
	Run func(pass *Pass) error

	// Finish, if set, runs once after Run has seen every package. Its Pass
	// carries the run's shared State and FileSet and no package, so a
	// whole-program check reports from here.
	Finish func(pass *Pass) error
}

// A Package is one type-checked package ready for analysis.
type Package struct {
	PkgPath   string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// A Pass connects an Analyzer to one Package during a run. Analyzers
// read the syntax and type information and call Reportf for each finding.
type Pass struct {
	Analyzer  *Analyzer
	PkgPath   string
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// State is shared by every package this analyzer visits during one
	// driver run, in load (dependency) order. Cross-package checks — such
	// as metriccheck's redeclaration detection — accumulate into it.
	State map[string]any

	report func(Diagnostic)
}

// A Diagnostic is one finding at a position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf records one formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Finding is one reported, unsuppressed diagnostic with its resolved
// position, the driver's output unit.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Analyzer)
}

// AllowDirective is the comment prefix that suppresses a finding on its
// own line or the line below: //lint:dtlint-allow <analyzer> <reason>.
const AllowDirective = "//lint:dtlint-allow"

// suppression is one parsed allow directive.
type suppression struct {
	file     string
	line     int
	analyzer string
	used     bool
}

// Run applies every analyzer to every package and returns the surviving
// findings sorted by position. Packages must be given in dependency
// order (the loader's order) so cross-package state accumulates
// deterministically. Malformed and unused suppression directives are
// reported as findings under the pseudo-analyzer name "dtlint".
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	var findings []Finding
	var sups []*suppression
	ranNames := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ranNames[a.Name] = true
	}

	// Parse suppression directives once per package.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, AllowDirective) {
						continue
					}
					rest := strings.TrimPrefix(c.Text, AllowDirective)
					fields := strings.Fields(rest)
					pos := pkg.Fset.Position(c.Pos())
					if len(fields) < 2 {
						findings = append(findings, Finding{
							Analyzer: "dtlint",
							Pos:      pos,
							Message:  "malformed suppression: want //lint:dtlint-allow <analyzer> <reason>",
						})
						continue
					}
					sups = append(sups, &suppression{
						file:     pos.Filename,
						line:     pos.Line,
						analyzer: fields[0],
					})
				}
			}
		}
	}

	suppressed := func(name string, pos token.Position) bool {
		for _, s := range sups {
			if s.analyzer != name || s.file != pos.Filename {
				continue
			}
			if s.line == pos.Line || s.line == pos.Line-1 {
				s.used = true
				return true
			}
		}
		return false
	}

	for _, a := range analyzers {
		if a.Name == "" || a.Run == nil {
			return nil, fmt.Errorf("analysis: invalid analyzer %+v", a)
		}
		state := make(map[string]any)
		report := func(fset *token.FileSet) func(Diagnostic) {
			return func(d Diagnostic) {
				pos := fset.Position(d.Pos)
				if suppressed(a.Name, pos) {
					return
				}
				findings = append(findings, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
			}
		}
		for _, pkg := range pkgs {
			pass := &Pass{
				Analyzer:  a,
				PkgPath:   pkg.PkgPath,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				State:     state,
				report:    report(pkg.Fset),
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
		if a.Finish != nil && len(pkgs) > 0 {
			// The loaders put every package of a run in one FileSet.
			fset := pkgs[0].Fset
			pass := &Pass{Analyzer: a, Fset: fset, State: state, report: report(fset)}
			if err := a.Finish(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s: %w", a.Name, err)
			}
		}
	}

	// A directive that suppressed nothing (for an analyzer that actually
	// ran) is dead weight that hides review intent; surface it.
	for _, s := range sups {
		if s.used || !ranNames[s.analyzer] {
			continue
		}
		findings = append(findings, Finding{
			Analyzer: "dtlint",
			Pos:      token.Position{Filename: s.file, Line: s.line},
			Message:  fmt.Sprintf("unused suppression for %s", s.analyzer),
		})
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}
