package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxProp enforces context propagation through the serving path. A
// statement deadline or admin cancel only works if the context carrying
// it reaches every blocking callee, so: (1) a function that already
// receives a context.Context must not mint a fresh one with
// context.Background()/TODO() — that silently detaches the callee from
// the caller's deadline; (2) inside the ctx-strict packages (the serving
// path: internal/server, internal/engine, internal/outbox, plus any
// package whose doc carries //sqlcm:ctx-strict) Background()/TODO() are
// banned everywhere except functions annotated //sqlcm:ctx-root <reason>
// — the sanctioned places where a fresh lifetime genuinely starts; and
// (3) a function holding a context must not call the context-less
// variant of an API whose Context-suffixed sibling exists (s.Exec(...)
// where s.ExecContext(ctx, ...) is available), the classic way a
// deadline is dropped without any Background() in sight.
var CtxProp = &Analyzer{
	Name: "ctxprop",
	Doc:  "contexts must propagate: no Background()/TODO() or context-less sibling calls where a context is in hand",
	Run:  runCtxProp,
}

// ctxStrictPaths are the serving-path packages where minting a fresh
// context requires a //sqlcm:ctx-root annotation. Subpackages inherit
// the strictness.
var ctxStrictPaths = []string{
	"sqlcm/internal/server",
	"sqlcm/internal/engine",
	"sqlcm/internal/outbox",
}

func ctxStrict(pkg *Package) bool {
	if pkg.Facts.CtxStrict {
		return true
	}
	for _, p := range ctxStrictPaths {
		if pkg.Path == p || strings.HasPrefix(pkg.Path, p+"/") {
			return true
		}
	}
	return false
}

func runCtxProp(p *Pass) {
	info := p.Pkg.Info
	strict := ctxStrict(p.Pkg)
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj := info.Defs[fn.Name]
			isRoot := false
			if obj != nil {
				if reason, ok := p.Pkg.Facts.CtxRoot[obj]; ok {
					isRoot = true
					if reason == "" {
						p.Reportf(fn.Pos(),
							"//sqlcm:ctx-root on %s needs a reason: say why a fresh context lifetime starts here",
							fn.Name.Name)
					}
				}
			}
			hasCtx := funcHasCtxParam(info, fn)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if name, ok := ctxMintCall(info, call); ok && !p.allowed(call.Pos()) {
					switch {
					case hasCtx:
						p.Reportf(call.Pos(),
							"%s already receives a context: pass it instead of minting context.%s (a fresh context detaches the callee from the caller's deadline)",
							fn.Name.Name, name)
					case strict && !isRoot:
						p.Reportf(call.Pos(),
							"context.%s in ctx-strict package %s outside a //sqlcm:ctx-root function: thread a caller context or annotate the root",
							name, p.Pkg.Types.Name())
					}
					return true
				}
				if !hasCtx || p.allowed(call.Pos()) {
					return true
				}
				if sib := ctxlessSibling(info, call); sib != "" {
					p.Reportf(call.Pos(),
						"%s holds a context but calls the context-less variant: call %s and pass the context",
						fn.Name.Name, sib)
				}
				return true
			})
		}
	}
}

// funcHasCtxParam reports whether any parameter (or the receiver) of the
// declared function is a context.Context.
func funcHasCtxParam(info *types.Info, fn *ast.FuncDecl) bool {
	obj, ok := info.Defs[fn.Name].(*types.Func)
	if !ok {
		return false
	}
	sig := obj.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// ctxMintCall matches context.Background() / context.TODO() and returns
// the function name.
func ctxMintCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Background" && sel.Sel.Name != "TODO") {
		return "", false
	}
	pkg, ok := packageQualifier(info, sel.X)
	if !ok || pkg != "context" {
		return "", false
	}
	return sel.Sel.Name, true
}

// ctxlessSibling reports the name of the Context-accepting sibling when
// the call resolves to a function or method without a context parameter
// but a variant named <Name>Context taking one exists in the same scope
// (same receiver type for methods, same package for functions).
func ctxlessSibling(info *types.Info, call *ast.CallExpr) string {
	callee, ok := calleeOf(info, call).(*types.Func)
	if !ok || strings.HasSuffix(callee.Name(), "Context") {
		return ""
	}
	sig := callee.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return "" // already context-aware under another name
		}
	}
	want := callee.Name() + "Context"
	var sibling types.Object
	if recv := sig.Recv(); recv != nil {
		obj, _, _ := types.LookupFieldOrMethod(recv.Type(), true, callee.Pkg(), want)
		sibling = obj
	} else if callee.Pkg() != nil {
		sibling = callee.Pkg().Scope().Lookup(want)
	}
	sfn, ok := sibling.(*types.Func)
	if !ok {
		return ""
	}
	ssig := sfn.Type().(*types.Signature)
	if ssig.Params().Len() == 0 || !isContextType(ssig.Params().At(0).Type()) {
		return ""
	}
	return want
}
