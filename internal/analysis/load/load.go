// Package load turns `go list` package patterns into type-checked
// analysis.Packages. It is the dtlint equivalent of
// golang.org/x/tools/go/packages, built only on the standard library:
// `go list -deps -json` resolves the build (with build-constraint
// filtering and module-aware import resolution), and go/parser + go/types
// check every package from source in the dependency order go list
// already guarantees. CGO is disabled so cgo-optional packages resolve to
// their pure-Go variants, which keeps source type-checking total.
//
// Only production sources are loaded: go list's GoFiles excludes _test.go
// files, so the dtlint invariants are enforced on the shipped tree and
// tests remain free to use context.Background(), raw errors, and so on.
package load

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"

	"repro/internal/analysis"
)

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

// mapImporter resolves imports against the set of packages already
// type-checked this run. go list hands us the full dependency closure in
// topological order, so every import is present by the time it is needed.
type mapImporter map[string]*types.Package

func (m mapImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := m[path]; ok {
		return pkg, nil
	}
	return nil, fmt.Errorf("load: import %q not in dependency closure", path)
}

// Load resolves patterns relative to dir (a directory inside the module)
// and returns the type-checked target packages — the ones the patterns
// name, not their dependencies — in dependency order.
//
// The pattern "./..." also takes in every module nested under dir (such
// as benchmark/), each listed from its own directory after the module at
// dir. All of them share one FileSet and one importer, and an import path
// is type-checked once, so a nested module's reference to a package of
// the outer one resolves to the same types.Object as the outer module's.
func Load(dir string, patterns ...string) ([]*analysis.Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	l := &loader{fset: token.NewFileSet(), imported: make(mapImporter)}
	l.sizes = types.SizesFor("gc", runtime.GOARCH)
	if l.sizes == nil {
		l.sizes = types.SizesFor("gc", "amd64")
	}
	if err := l.list(dir, patterns); err != nil {
		return nil, err
	}
	if slices.Contains(patterns, "./...") {
		nested, err := nestedModules(dir)
		if err != nil {
			return nil, err
		}
		for _, d := range nested {
			if err := l.list(d, []string{"./..."}); err != nil {
				return nil, err
			}
		}
	}
	return l.targets, nil
}

// nestedModules returns the directories below dir that hold a go.mod,
// skipping the directories `./...` skips (testdata, vendor, and names
// starting with "." or "_").
func nestedModules(dir string) ([]string, error) {
	var mods []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() || path == dir {
			return nil
		}
		name := d.Name()
		if name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
			mods = append(mods, path)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("load: finding nested modules: %w", err)
	}
	return mods, nil
}

// loader type-checks the packages of one or more go list runs into one
// FileSet, importing each path once.
type loader struct {
	fset     *token.FileSet
	imported mapImporter
	sizes    types.Sizes
	targets  []*analysis.Package
}

// list runs go list over patterns in dir and type-checks every package
// it names that an earlier run has not.
func (l *loader) list(dir string, patterns []string) error {
	args := append([]string{"list", "-deps", "-json=ImportPath,Dir,Name,GoFiles,DepOnly,Standard,Error", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	out, err := cmd.Output()
	if err != nil {
		msg := err.Error()
		if ee, ok := err.(*exec.ExitError); ok && len(ee.Stderr) > 0 {
			msg = strings.TrimSpace(string(ee.Stderr))
		}
		return fmt.Errorf("load: go list %s: %s", strings.Join(patterns, " "), msg)
	}

	dec := json.NewDecoder(strings.NewReader(string(out)))
	for dec.More() {
		var lp listPackage
		if err := dec.Decode(&lp); err != nil {
			return fmt.Errorf("load: decoding go list output: %w", err)
		}
		if lp.Error != nil {
			return fmt.Errorf("load: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if _, done := l.imported[lp.ImportPath]; done || lp.ImportPath == "unsafe" {
			continue
		}
		files := make([]*ast.File, 0, len(lp.GoFiles))
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(l.fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return fmt.Errorf("load: %s: %w", lp.ImportPath, err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Implicits:  make(map[ast.Node]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Scopes:     make(map[ast.Node]*types.Scope),
		}
		conf := types.Config{
			Importer:    l.imported,
			Sizes:       l.sizes,
			FakeImportC: true,
		}
		tpkg, err := conf.Check(lp.ImportPath, l.fset, files, info)
		if err != nil {
			return fmt.Errorf("load: type-checking %s: %w", lp.ImportPath, err)
		}
		l.imported[lp.ImportPath] = tpkg
		// Standard-library vendored packages are listed under a vendor/
		// prefix but imported by their unprefixed path.
		if rest, ok := strings.CutPrefix(lp.ImportPath, "vendor/"); ok {
			l.imported[rest] = tpkg
		}
		if lp.DepOnly || lp.Standard {
			continue
		}
		l.targets = append(l.targets, &analysis.Package{
			PkgPath:   lp.ImportPath,
			Fset:      l.fset,
			Files:     files,
			Types:     tpkg,
			TypesInfo: info,
		})
	}
	return nil
}

// The source importer below exists for analysistest, which loads fixture
// trees that are not part of any module: fixture-local imports resolve
// against the fixture set and everything else falls through to the
// standard library, type-checked from GOROOT source.

// StdImporter returns an importer that type-checks standard-library
// packages from source, sharing fset.
func StdImporter(fset *token.FileSet) types.Importer {
	return importer.ForCompiler(fset, "source", nil)
}
