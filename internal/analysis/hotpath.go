package analysis

import (
	"go/ast"
	"go/types"
)

// HotPath flags clock reads on the monitoring hot path. A dispatch runs
// synchronously inside the engine's query thread for every monitored
// event, so a time.Now there is per-query overhead the embedder never
// asked for — and no test notices it: the clock read neither allocates
// nor changes a result. The wire front-end's per-message functions are
// marked too: a clock read there is a deadline re-armed per message, the
// cost its timeout watchdog replaced. Functions opt in with
// //sqlcm:hotpath; a deliberate exception (a clock read gated behind an
// optional latency budget) is suppressed line-by-line with
// //sqlcm:allow <reason>.
// Allocation on the hot path is pinned by TestMonitoredPointReadAllocs
// instead, and unclassed locks by the lockorder analyzer everywhere.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "forbid clock reads in //sqlcm:hotpath functions",
	Run:  runHotPath,
}

// clockReads are the package time functions that read the clock.
var clockReads = map[string]bool{"Now": true, "Since": true, "Until": true}

func runHotPath(p *Pass) {
	info := p.Pkg.Info
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hasDirective(fn, "hotpath") {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
				if !ok || !clockReads[sel.Sel.Name] {
					return true
				}
				if pkg, ok := packageQualifier(info, sel.X); ok && pkg == "time" {
					p.reportUnlessAllowed(call.Pos(),
						"call to time.%s in hot-path function %s: reads the clock on every event (suppress with //sqlcm:allow <reason>)",
						sel.Sel.Name, fn.Name.Name)
				}
				return true
			})
		}
	}
}

// packageQualifier resolves the X of a selector call to the import path
// of the package it names, using type information when present and
// falling back to the identifier's spelling for unresolved trees.
func packageQualifier(info *types.Info, x ast.Expr) (string, bool) {
	id, ok := unparen(x).(*ast.Ident)
	if !ok {
		return "", false
	}
	switch obj := info.Uses[id].(type) {
	case *types.PkgName:
		return obj.Imported().Path(), true
	case nil:
		// No type info (partial tree): the identifier's name is the best
		// available guess, matching the pre-type-aware behavior.
		return id.Name, true
	}
	return "", false // a local variable, not a package
}
