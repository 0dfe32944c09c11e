package analysis

import (
	"go/ast"
)

// Recovered enforces the engine's panic-isolation discipline. User rule
// code (conditions and actions) runs inside functions marked
// //sqlcm:callback; a panic there must never unwind into the query thread
// that raised the event, so every call to a callback function has to sit
// inside a function marked //sqlcm:recovered — and a recovered function
// must genuinely defer a recover(), or the marker is a lie.
//
// Callback-ness is a fact: calls are resolved through type information,
// so invocations through another package's exported callback, or through
// an interface method annotated at its declaration, no longer escape the
// check the way the old name-matching driver allowed.
var Recovered = &Analyzer{
	Name: "recovered",
	Doc:  "rule-callback invocations must be wrapped in a deferred recover()",
	Run:  runRecovered,
}

func runRecovered(p *Pass) {
	info := p.Pkg.Info
	facts := p.Pkg.Facts
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj := info.Defs[fn.Name]
			if obj == nil {
				continue
			}
			if facts.Recovered[obj] && !defersRecover(fn.Body) {
				p.Reportf(fn.Pos(),
					"function %s is marked //sqlcm:recovered but never defers a recover()",
					fn.Name.Name)
			}
			// Calls inside a recovered or callback function are under the
			// discipline already.
			if facts.Recovered[obj] || facts.Callback[obj] {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeOf(info, call)
				ff := p.FactsFor(callee)
				if ff == nil || !ff.Callback[callee] {
					return true
				}
				if p.allowed(call.Pos()) {
					return true
				}
				p.Reportf(call.Pos(),
					"rule callback %s invoked from %s, which is not marked //sqlcm:recovered: a panic in rule code would unwind into the caller",
					callee.Name(), fn.Name.Name)
				return true
			})
		}
	}
}

// defersRecover reports whether the body contains a defer statement whose
// deferred function (directly or via a function literal) calls recover().
func defersRecover(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		def, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		ast.Inspect(def.Call, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "recover" && id.Obj == nil {
					found = true
					return false
				}
			}
			return true
		})
		return true
	})
	return found
}
