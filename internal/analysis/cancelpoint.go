package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CancelPoint proves that statement deadlines land at every iteration
// boundary the serving path promises. A function annotated
// //sqlcm:cancellable (row iteration, lock wait, outbox drain) must give
// every loop in its body a reachable cancellation point: a direct
// ctx.Err()/ctx.Done() check, a receive on a stop channel
// (chan struct{}), or a call to a callee summarized as cancel-capable —
// one that is annotated //sqlcm:cancelpoint or whose own body provably
// checks (the CancelCapable fact, computed transitively and across
// packages). Loops that range over a channel are inherently cancellable:
// the owner ends them by closing the channel. A deliberately unbounded-
// poll-free loop (provably bounded work) is suppressed with
// //sqlcm:allow <reason> on the loop line.
var CancelPoint = &Analyzer{
	Name: "cancelpoint",
	Doc:  "every loop in a //sqlcm:cancellable function must reach a cancellation check",
	Run:  runCancelPoint,
}

func runCancelPoint(p *Pass) {
	info := p.Pkg.Info
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hasDirective(fn, "cancellable") {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				var body *ast.BlockStmt
				switch loop := n.(type) {
				case *ast.ForStmt:
					body = loop.Body
				case *ast.RangeStmt:
					if _, overChan := info.TypeOf(loop.X).Underlying().(*types.Chan); overChan {
						return true // closing the channel cancels the loop
					}
					body = loop.Body
				default:
					return true
				}
				if p.allowed(n.Pos()) {
					return true
				}
				if !loopHasCancelPoint(p, info, body) {
					p.Reportf(n.Pos(),
						"loop in //sqlcm:cancellable function %s has no cancellation point: poll ctx.Err()/ctx.Done(), receive on a stop channel, or call a cancel-capable (//sqlcm:cancelpoint) callee",
						fn.Name.Name)
				}
				return true
			})
		}
	}
}

// loopHasCancelPoint reports whether the loop body (including nested
// statements) reaches a cancellation check on some path.
func loopHasCancelPoint(p *Pass, info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if isCtxCancelCheck(info, n) {
				found = true
				return false
			}
			if callee := calleeOf(info, n); callee != nil {
				if ff := p.FactsFor(callee); ff != nil && ff.CancelCapable[callee] {
					found = true
					return false
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && isStopChan(info.TypeOf(n.X)) {
				found = true
				return false
			}
		case *ast.RangeStmt:
			if _, overChan := info.TypeOf(n.X).Underlying().(*types.Chan); overChan {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
