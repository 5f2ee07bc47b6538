// Package compiledimmut implements the rtlint analyzer that forbids
// writing to core.Compiled (and its expansion twin core.Expanded) outside
// internal/core.
//
// A *core.Compiled is built once by core.Compile and then shared without
// synchronization: across rtserve's concurrent solves through the
// compiled cache, across every solver through solver.Options routing hints, and
// across repeated requests through the sync.Once memos hanging off it.
// Any field write outside the owning package is therefore a data race by
// construction, even if no test ever schedules the two goroutines
// together.  The analyzer flags, in every package except internal/core
// itself (test variants included):
//
//   - assignments, op-assignments and ++/-- whose destination chain passes
//     through a Compiled- or Expanded-typed expression (c.Topo = x,
//     c.OutStart[v] = x, c.Inst.Fns[e] = x, ...);
//   - composite literals of either type: a hand-built Compiled bypasses
//     the invariants Compile establishes, so only core may construct one.
//
// Writes through a previously-extracted alias (s := c.Topo; s[0] = 1) are
// beyond this analyzer's flow sensitivity; the -race CI jobs remain the
// backstop for those.
package compiledimmut

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the compiledimmut analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "compiledimmut",
	Doc: "forbid writes to core.Compiled outside internal/core\n\n" +
		"The compiled instance form is shared race-free across the solve\n" +
		"pool precisely because nothing mutates it after Compile returns.",
	Run: run,
}

// protectedNames are the shared immutable types owned by internal/core.
var protectedNames = map[string]bool{
	"Compiled": true,
	"Expanded": true,
}

// isCorePath reports whether the normalized package path is the owning
// package (the real repo path, or any path ending in internal/core so the
// golden-test corpus can model the exemption).
func isCorePath(path string) bool {
	return path == "repro/internal/core" ||
		path == "internal/core" ||
		strings.HasSuffix(path, "/internal/core")
}

func run(pass *analysis.Pass) (any, error) {
	if isCorePath(pass.PkgPath()) {
		return nil, nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					checkWrite(pass, lhs)
				}
			case *ast.IncDecStmt:
				checkWrite(pass, n.X)
			case *ast.CompositeLit:
				if protectedType(pass.TypesInfo.Types[n].Type) {
					pass.Reportf(n.Pos(), "composite literal of a core compiled type outside internal/core; only core.Compile may construct one")
				}
			}
			return true
		})
	}
	return nil, nil
}

// checkWrite reports if the written destination dereferences a protected
// value anywhere along its selector/index chain.
func checkWrite(pass *analysis.Pass, lhs ast.Expr) {
	for {
		switch e := ast.Unparen(lhs).(type) {
		case *ast.IndexExpr:
			lhs = e.X
		case *ast.StarExpr:
			lhs = e.X
		case *ast.SelectorExpr:
			if protectedType(pass.TypesInfo.Types[e.X].Type) {
				pass.Reportf(lhs.Pos(), "write to a core."+typeName(pass.TypesInfo.Types[e.X].Type)+
					" outside internal/core; the compiled form is pool-shared and immutable after Compile")
				return
			}
			lhs = e.X
		default:
			return
		}
	}
}

// protectedType reports whether t (possibly behind a pointer) is one of
// the protected named types declared in an internal/core package.
func protectedType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !protectedNames[obj.Name()] {
		return false
	}
	return isCorePath(analysis.NormalizePkgPath(obj.Pkg().Path()))
}

// typeName names a protected type for diagnostics.
func typeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return "Compiled"
}
