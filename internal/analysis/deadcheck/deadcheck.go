// Package deadcheck keeps library code that nothing runs from growing
// back under internal/. It is a whole-program check: Run records every
// top-level declaration of every loaded package with the declarations it
// references, and Finish walks that graph from the roots and reports each
// declaration in an internal/ package (func, method, type, var or const,
// exported or not) that no root reaches. The roots are
//
//   - every declaration outside internal/: the facade, the client SDK,
//     commands, examples and, because `./...` loads nested modules too,
//     the benchmark harness;
//   - init functions, and package-level vars whose initializer calls a
//     function (registration is a side effect);
//   - every declaration of an Allowlist package.
//
// A method of a reached type is reached when it has the name and
// signature of a method of some interface type in the program (the
// universe error included), since a dynamic call may reach it. Tests are
// never loaded, so code only a test calls is dead; it stays only under a
// //lint:dtlint-allow directive that names the test and its role there,
// and such a kept declaration is a root for what it uses.
//
// Findings are meaningful only for a whole-program load (`./...` from a
// module root), so cmd/dtlint runs deadcheck for no narrower one.
package deadcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/astq"
)

// Analyzer is the deadcheck instance cmd/dtlint runs.
var Analyzer = &analysis.Analyzer{
	Name: "deadcheck",
	Doc: "every top-level declaration in internal/ must be reachable from non-test code " +
		"outside internal/, an init, a registering var, or an allowlisted package",
	Run:    run,
	Finish: finish,
}

// Allowlist names the internal packages whose every declaration is a
// root, with the reason. Each serves tests only.
var Allowlist = map[string]string{
	"repro/internal/faultinject":           "the chaos suites' fault-injecting transport and TCP proxy",
	"repro/internal/analysis/analysistest": "the analyzers' fixture runner",
}

// graph is the run's shared state: the declarations seen so far and the
// interface methods a dynamic call could reach.
type graph struct {
	refs    map[types.Object][]types.Object // declaration → what it references
	report  map[types.Object]string         // internal, non-root declarations → kind
	roots   []types.Object
	kept    []types.Object // report entries under a deadcheck directive
	pkgs    []*types.Package
	ifaces  map[string][]*types.Func // interface methods by name
	seen    map[*types.Interface]bool
	reached map[types.Object]bool
}

func run(pass *analysis.Pass) error {
	g, _ := pass.State["graph"].(*graph)
	if g == nil {
		g = &graph{
			refs:    make(map[types.Object][]types.Object),
			report:  make(map[types.Object]string),
			ifaces:  make(map[string][]*types.Func),
			seen:    make(map[*types.Interface]bool),
			reached: make(map[types.Object]bool),
		}
		pass.State["graph"] = g
	}
	g.pkgs = append(g.pkgs, pass.Pkg)
	for _, tv := range pass.TypesInfo.Types {
		g.addIface(tv.Type)
	}
	_, allowed := Allowlist[pass.PkgPath]
	rootPkg := allowed || !internal(pass.PkgPath)
	for _, file := range pass.Files {
		directives := make(map[int]bool) // lines holding a deadcheck directive
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if rest, ok := strings.CutPrefix(c.Text, analysis.AllowDirective); ok && strings.HasPrefix(strings.TrimSpace(rest), pass.Analyzer.Name+" ") {
					directives[pass.Fset.Position(c.Pos()).Line] = true
				}
			}
		}
		add := func(obj types.Object, kind string, refs []types.Object, root bool) {
			if obj == nil {
				return
			}
			g.refs[obj] = refs
			switch line := pass.Fset.Position(obj.Pos()).Line; {
			case root:
				g.roots = append(g.roots, obj)
			case directives[line] || directives[line-1]:
				g.kept = append(g.kept, obj)
				fallthrough
			default:
				g.report[obj] = kind
			}
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				obj := pass.TypesInfo.Defs[d.Name]
				root := rootPkg || (d.Recv == nil && d.Name.Name == "init")
				kind := "func"
				if d.Recv != nil {
					kind = "method"
				}
				add(obj, kind, refs(pass.TypesInfo, d), root)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(pass.TypesInfo.Defs[s.Name], "type", refs(pass.TypesInfo, s), rootPkg)
					case *ast.ValueSpec:
						kind := "const"
						if d.Tok == token.VAR {
							kind = "var"
						}
						r := refs(pass.TypesInfo, s)
						root := rootPkg || (kind == "var" && callsFunc(pass.TypesInfo, s))
						for _, name := range s.Names {
							if name.Name == "_" && !root {
								continue
							}
							add(pass.TypesInfo.Defs[name], kind, r, root)
						}
					}
				}
			}
		}
	}
	return nil
}

// addIface records the methods of t if it is an interface.
func (g *graph) addIface(t types.Type) {
	if t == nil {
		return
	}
	it, ok := t.Underlying().(*types.Interface)
	if !ok || g.seen[it] {
		return
	}
	g.seen[it] = true
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		g.ifaces[m.Name()] = append(g.ifaces[m.Name()], m)
	}
}

func finish(pass *analysis.Pass) error {
	g, _ := pass.State["graph"].(*graph)
	if g == nil {
		return nil
	}
	// Every named interface of every package in the program.
	g.addIface(types.Universe.Lookup("error").Type())
	seen := make(map[*types.Package]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				g.addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range g.pkgs {
		visit(p)
	}

	// A kept declaration is reported for its directive to suppress, unless
	// the roots reach it: then the directive suppresses nothing and
	// analysis.Run flags it as unused.
	report := func(obj types.Object) {
		pass.Reportf(obj.Pos(), "%s %s is reached from no non-test code outside internal/", g.report[obj], name(obj))
	}
	g.walk(g.roots)
	for _, obj := range g.kept {
		if !g.reached[obj] {
			report(obj)
		}
	}
	g.walk(g.kept)
	for obj := range g.report {
		if !g.reached[obj] {
			report(obj)
		}
	}
	return nil
}

// walk marks everything reachable from the given declarations.
func (g *graph) walk(from []types.Object) {
	work := append([]types.Object(nil), from...)
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		if g.reached[obj] {
			continue
		}
		g.reached[obj] = true
		work = append(work, g.refs[obj]...)
		if tn, ok := obj.(*types.TypeName); ok {
			work = append(work, g.dynamicMethods(tn)...)
		}
	}
}

// dynamicMethods returns the methods of tn's type, promoted ones
// included, that an interface call could select.
func (g *graph) dynamicMethods(tn *types.TypeName) []types.Object {
	if tn.IsAlias() || types.IsInterface(tn.Type()) {
		return nil
	}
	var out []types.Object
	mset := types.NewMethodSet(types.NewPointer(tn.Type()))
	for i := 0; i < mset.Len(); i++ {
		m := mset.At(i).Obj().(*types.Func).Origin()
		for _, im := range g.ifaces[m.Name()] {
			if (m.Exported() || im.Pkg() == m.Pkg()) && types.Identical(m.Type(), im.Type()) {
				out = append(out, m)
				break
			}
		}
	}
	return out
}

// refs returns the package-level objects and methods node references.
func refs(info *types.Info, node ast.Node) []types.Object {
	var out []types.Object
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		switch obj := info.Uses[id].(type) {
		case *types.Func:
			out = append(out, obj.Origin())
		case *types.Var:
			if !obj.IsField() && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
				out = append(out, obj)
			}
		case *types.TypeName, *types.Const:
			if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
				out = append(out, obj)
			}
		}
		return true
	})
	return out
}

// callsFunc reports whether a var spec's initializer calls a function
// (a conversion or a builtin is not a call).
func callsFunc(info *types.Info, s *ast.ValueSpec) bool {
	calls := false
	for _, v := range s.Values {
		ast.Inspect(v, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if tv := info.Types[call.Fun]; !tv.IsType() && !tv.IsBuiltin() {
					calls = true
				}
			}
			return !calls
		})
	}
	return calls
}

// internal reports whether path has an internal element.
func internal(path string) bool { return strings.Contains("/"+path+"/", "/internal/") }

// name renders obj as Name or Recv.Name.
func name(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
		if named := astq.NamedType(fn.Signature().Recv().Type()); named != nil {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	return obj.Name()
}
