// Package lockcheck enforces the critical-section discipline the WAL ack
// path (PR 5) depends on: in internal/store and internal/cluster, no
// I/O, channel send, or cross-package call may happen while a
// sync.Mutex or sync.RWMutex is held, unless the holding function is on
// the documented Allowlist. A blocking call under a shard or ingest lock
// stalls every reader behind an arbitrary syscall; the allowlist names
// the few places that do it on purpose (the WAL append path serializes
// durability with enqueue order by design).
//
// The analysis is intra-procedural and syntactic about lock regions: a
// region opens at a Lock/RLock statement and closes at the matching
// Unlock/RUnlock on the same receiver expression; a deferred unlock
// holds the lock for the rest of the function. Function literals are not
// entered (their execution time is unknown). Branch bodies are analyzed
// under the lock state at entry.
package lockcheck

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/astq"
)

// Analyzer is the lockcheck instance the dtlint driver runs.
var Analyzer = &analysis.Analyzer{
	Name: "lockcheck",
	Doc: "no I/O, channel sends, or cross-package calls while holding a mutex in " +
		"internal/store and internal/cluster, outside the documented allowlist",
	Run: run,
}

// Allowlist names functions (as "pkgpath.Func" or
// "pkgpath.(*Recv).Method") that hold a lock across I/O or cross-package
// calls by design, with the reason each is sound.
var Allowlist = map[string]string{
	// The dtnode write path: h.mu deliberately serializes the store
	// mutation with the WAL append so log order matches apply order — the
	// durability contract of every ack (PR 5). Releasing the lock between
	// mutation and logLocked would let a concurrent write interleave and
	// replay diverge from the acknowledged history.
	"repro/internal/cluster.(*Node).handleWrite": "WAL append under h.mu IS the ack ordering contract",

	// Replication and recovery paths that write or apply an image, or replay
	// the WAL, under h.mu for the same reason: what is handed out (or
	// applied) must be a prefix of the acknowledged history.
	"repro/internal/cluster.(*Node).handlePull":       "shard image handed out under h.mu must match h.gen",
	"repro/internal/cluster.(*Node).EnableDurability": "recovery replay under h.mu precedes any concurrent write",
	"repro/internal/cluster.(*Node).Checkpoint":       "checkpoint under h.mu captures a consistent store+seq pair",
	"repro/internal/cluster.(*hostedShard).applyPull": "replica apply and its WAL appends under h.mu mirror the primary's ack ordering",

	// The one durable log's ack path: l.mu serializes append, flush and
	// (optional) fsync so the sequence number Append returns is durable
	// before the next event can be numbered.
	"repro/internal/store.(*Log).Append": "append+flush+fsync under l.mu IS the ack ordering contract",

	// Snapshot streaming: WriteSnapshot holds c.mu.RLock across the
	// bufio/os writes on purpose — the point-in-time consistency of the
	// snapshot is the feature, and readers proceed under the RLock.
	"repro/internal/store.(*Collection).WriteSnapshot": "consistent point-in-time snapshot requires streaming under RLock",
}

// scoped reports whether this package carries the locking discipline.
func scoped(pkgPath string) bool {
	switch astq.PkgTail(pkgPath) {
	case "store", "cluster":
		return true
	}
	return false
}

// safePkgs are the packages callable under a lock: pure computation over
// memory, plus sync itself. Everything else outside the current package
// is flagged.
var safePkgs = map[string]bool{
	"fmt": true, "strings": true, "strconv": true, "sort": true,
	"errors": true, "bytes": true, "unicode": true, "unicode/utf8": true,
	"math": true, "math/bits": true, "math/rand": true, "math/rand/v2": true,
	"slices": true, "maps": true, "cmp": true, "sync": true,
	"sync/atomic": true, "context": true, "time": true, "path": true,
	"path/filepath": true, "regexp": true, "reflect": true,
	"runtime": true, "unicode/utf16": true,
}

// safeModulePkgs are this module's own pure in-memory packages: value
// constructors, typed errors and the index tree the store walks under its
// own lock — no I/O and no locks of their own.
var safeModulePkgs = map[string]bool{
	"repro/dterr":           true,
	"repro/internal/btree":  true,
	"repro/internal/record": true,
}

func safeCallee(path string) bool {
	if safePkgs[path] || safeModulePkgs[path] {
		return true
	}
	return strings.HasPrefix(path, "encoding") ||
		strings.HasPrefix(path, "hash") ||
		strings.HasPrefix(path, "container/")
}

// blockingIO reports whether path is a package whose calls can block on
// the outside world.
func blockingIO(path string) bool {
	switch path {
	case "os", "io", "io/ioutil", "io/fs", "bufio", "syscall", "log", "net":
		return true
	}
	return strings.HasPrefix(path, "net/") || strings.HasPrefix(path, "os/")
}

func run(pass *analysis.Pass) error {
	if !scoped(pass.PkgPath) {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			key := pass.PkgPath + "." + astq.FuncKey(fd)
			if _, ok := Allowlist[key]; ok {
				continue
			}
			w := &walker{pass: pass}
			w.stmts(fd.Body.List, nil)
		}
	}
	return nil
}

type walker struct {
	pass *analysis.Pass
}

// lockOp classifies expr as a Lock/RLock/Unlock/RUnlock call on a
// sync.Mutex or sync.RWMutex (including one promoted from an embedded
// field), returning the receiver's source text as the region key.
func (w *walker) lockOp(expr ast.Expr) (key, op string) {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return "", ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	fn := astq.Callee(w.pass.TypesInfo, call)
	if fn == nil || !astq.FromPkg(fn, "sync") {
		return "", ""
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", ""
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if astq.IsNamed(sig.Recv().Type(), "sync", "Mutex") || astq.IsNamed(sig.Recv().Type(), "sync", "RWMutex") {
			return types.ExprString(sel.X), fn.Name()
		}
	}
	return "", ""
}

// stmts analyzes a statement list, threading the held-lock set through
// it, and returns the set at exit.
func (w *walker) stmts(list []ast.Stmt, held []string) []string {
	for _, s := range list {
		held = w.stmt(s, held)
	}
	return held
}

func acquire(held []string, key string) []string { return append(append([]string(nil), held...), key) }

func release(held []string, key string) []string {
	out := make([]string, 0, len(held))
	removed := false
	// Remove the most recent acquisition of key.
	for i := len(held) - 1; i >= 0; i-- {
		if !removed && held[i] == key {
			removed = true
			continue
		}
		out = append(out, held[i])
	}
	// Restore original order.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

func (w *walker) stmt(s ast.Stmt, held []string) []string {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if key, op := w.lockOp(s.X); key != "" {
			switch op {
			case "Lock", "RLock":
				return acquire(held, key)
			default:
				return release(held, key)
			}
		}
		w.check(s.X, held)
	case *ast.DeferStmt:
		if key, op := w.lockOp(s.Call); key != "" && (op == "Unlock" || op == "RUnlock") {
			// Deferred unlock: the lock stays held for the rest of the
			// function; nothing to do here.
			return held
		}
		// Other deferred calls run at return time under unknown lock
		// state; skip them.
	case *ast.BlockStmt:
		return w.stmts(s.List, held)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, held)
	case *ast.IfStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		w.check(s.Cond, held)
		w.stmt(s.Body, held)
		if s.Else != nil {
			w.stmt(s.Else, held)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			w.check(s.Cond, held)
		}
		inner := w.stmts(s.Body.List, held)
		if s.Post != nil {
			w.stmt(s.Post, inner)
		}
	case *ast.RangeStmt:
		w.check(s.X, held)
		w.stmts(s.Body.List, held)
	case *ast.SwitchStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			w.check(s.Tag, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					w.check(e, held)
				}
				w.stmts(cc.Body, held)
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, held)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				if cc.Comm != nil {
					w.stmt(cc.Comm, held)
				}
				w.stmts(cc.Body, held)
			}
		}
	case *ast.GoStmt:
		// The spawned goroutine runs outside this critical section; the
		// spawn itself does not block.
	case *ast.SendStmt:
		if len(held) > 0 {
			w.pass.Reportf(s.Arrow, "channel send while holding %s; sends can block indefinitely behind a slow receiver", held[len(held)-1])
		}
		w.check(s.Chan, held)
		w.check(s.Value, held)
	default:
		w.check(s, held)
	}
	return held
}

// check inspects an expression (or simple statement) for violations
// under the current lock set. Nested function literals are not entered.
func (w *walker) check(n ast.Node, held []string) {
	if n == nil || len(held) == 0 {
		return
	}
	lock := held[len(held)-1]
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			w.pass.Reportf(n.Arrow, "channel send while holding %s; sends can block indefinitely behind a slow receiver", lock)
		case *ast.CallExpr:
			fn := astq.Callee(w.pass.TypesInfo, n)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			path := fn.Pkg().Path()
			if path == w.pass.PkgPath {
				return true
			}
			if path == "time" && fn.Name() == "Sleep" {
				w.pass.Reportf(n.Pos(), "time.Sleep while holding %s", lock)
				return true
			}
			if blockingIO(path) {
				w.pass.Reportf(n.Pos(), "I/O call %s.%s while holding %s; move it outside the critical section or allowlist the function", astq.PkgTail(path), fn.Name(), lock)
				return true
			}
			if !safeCallee(path) {
				w.pass.Reportf(n.Pos(), "cross-package call %s.%s while holding %s; move it outside the critical section or allowlist the function", astq.PkgTail(path), fn.Name(), lock)
			}
		}
		return true
	})
}
