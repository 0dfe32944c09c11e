package analysis

import (
	"go/ast"
	"go/types"
)

// CowPublish checks the copy-on-write publication discipline on
// //sqlcm:cow <writer-class> fields (the rules engine's event→rules
// index is the archetype). A COW field must be a typed atomic pointer
// (atomic.Pointer[T] or atomic.Value) so every load is atomic by
// construction; the checks on top of the type system are:
//
//   - Store/Swap/CompareAndSwap on the field — publication — may only
//     happen while the declared writer class is write-held, so there is
//     exactly one builder at a time and readers never observe a torn
//     update sequence.
//   - a value obtained from the field's Load must never be mutated in
//     place: writers build a fresh value and swap it in. Mutations are
//     traced through local aliases of the loaded value, including
//     aliases of its fields (m := idx.byEvent; m[k] = v mutates the
//     published map).
//
// Loads are deliberately unchecked — lock-free reads are the point of
// the pattern.
var CowPublish = &Analyzer{
	Name: "cowpublish",
	Doc:  "//sqlcm:cow fields are published only under their writer class and loaded values are never mutated in place",
	Run:  runCowPublish,
}

// cowPublishOps are the atomic.Pointer/Value methods that publish.
var cowPublishOps = map[string]bool{"Store": true, "Swap": true, "CompareAndSwap": true}

func runCowPublish(p *Pass) {
	validateCowFields(p)
	p.watchHeld(heldSink{use: func(u fieldUse) {
		ff := p.FactsFor(u.obj)
		if ff == nil {
			return
		}
		class, ok := ff.CowFields[u.obj]
		if !ok || u.fresh || p.allowed(u.pos) {
			return
		}
		switch u.kind {
		case accCall:
			if !cowPublishOps[u.call] {
				return
			}
			held, write := heldFor(u.held, class)
			if !held || !write {
				p.Reportf(u.pos,
					"%s to COW field %s requires the write side of %s (held: %s): one builder at a time, build-then-swap",
					u.call, fieldRef(u.obj), class, heldList(u.held))
			}
		case accWrite:
			p.Reportf(u.pos, "plain write to COW field %s: publish through Store under %s", fieldRef(u.obj), class)
		case accAddr:
			if !u.atomicArg {
				p.Reportf(u.pos, "&%s escapes; the COW field must only be touched through its atomic methods", fieldRef(u.obj))
			}
		}
	}})
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				checkCowMutation(p, fn)
			}
		}
	}
}

// validateCowFields checks that every //sqlcm:cow field has an atomic
// pointer type — the annotation is meaningless (and the load-side
// guarantee void) on a plain pointer.
func validateCowFields(p *Pass) {
	for obj := range p.Pkg.Facts.CowFields {
		v, ok := obj.(*types.Var)
		if !ok {
			continue
		}
		if !isAtomicPointerType(v.Type()) {
			p.Reportf(obj.Pos(), "//sqlcm:cow field %s has type %s; COW fields must be atomic.Pointer[T] (or atomic.Value) so loads are atomic by construction", fieldRef(obj), v.Type())
		}
	}
}

// checkCowMutation flags in-place mutation of values loaded from a COW
// field: a flow-insensitive taint pass over one function body. Locals
// assigned from cowField.Load() (directly, through a type assertion, or
// by aliasing a tainted local's fields) are tainted; any write through a
// tainted chain is a mutation of the published value.
func checkCowMutation(p *Pass, fn *ast.FuncDecl) {
	info := p.Pkg.Info
	tainted := map[types.Object]bool{}

	objOf := func(id *ast.Ident) types.Object {
		if obj := info.Defs[id]; obj != nil {
			return obj
		}
		return info.Uses[id]
	}
	// exprTainted reports whether the expression denotes (part of) a
	// published COW value: a Load call on a cow field, or a chain rooted
	// at a tainted local.
	var exprTainted func(e ast.Expr) bool
	exprTainted = func(e ast.Expr) bool {
		switch x := unparen(e).(type) {
		case *ast.Ident:
			obj := objOf(x)
			return obj != nil && tainted[obj]
		case *ast.SelectorExpr:
			return exprTainted(x.X)
		case *ast.IndexExpr:
			return exprTainted(x.X)
		case *ast.StarExpr:
			return exprTainted(x.X)
		case *ast.SliceExpr:
			return exprTainted(x.X)
		case *ast.TypeAssertExpr:
			return exprTainted(x.X)
		case *ast.CallExpr:
			return isCowLoad(p, info, x)
		}
		return false
	}

	// Taint fixpoint: aliases of loaded values propagate through plain
	// assignments (bounded by the local count, tiny in practice).
	for changed := true; changed; {
		changed = false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			st, ok := n.(*ast.AssignStmt)
			if !ok || len(st.Lhs) != len(st.Rhs) {
				return true
			}
			for i := range st.Lhs {
				id, ok := st.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				obj := objOf(id)
				if obj == nil || tainted[obj] {
					continue
				}
				if exprTainted(st.Rhs[i]) {
					tainted[obj] = true
					changed = true
				}
			}
			return true
		})
	}

	report := func(e ast.Expr) {
		if p.allowed(e.Pos()) {
			return
		}
		p.Reportf(e.Pos(), "in-place mutation of a value loaded from a COW field: build a fresh value and Store it instead")
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				if _, ok := lhs.(*ast.Ident); ok {
					continue // rebinding a local is not a mutation
				}
				if exprTainted(lhs) {
					report(lhs)
				}
			}
		case *ast.IncDecStmt:
			if exprTainted(st.X) {
				report(st.X)
			}
		case *ast.CallExpr:
			if isBuiltinCall(info, st, "delete") && len(st.Args) == 2 && exprTainted(st.Args[0]) {
				report(st.Args[0])
			}
		}
		return true
	})
}

// isCowLoad matches <expr>.<cowfield>.Load() (and .Load().(T) is peeled
// by the caller).
func isCowLoad(p *Pass, info *types.Info, call *ast.CallExpr) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Load" {
		return false
	}
	fieldSel, ok := unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := fieldObjOf(info, fieldSel)
	if obj == nil {
		return false
	}
	ff := p.FactsFor(obj)
	if ff == nil {
		return false
	}
	_, isCow := ff.CowFields[obj]
	return isCow
}
