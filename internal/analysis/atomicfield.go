package analysis

import (
	"go/ast"
	"go/types"
)

// AtomicField enforces the accessed-atomically-everywhere rule: a struct
// field that any package touches through a raw sync/atomic call
// (atomic.AddInt64(&s.n, 1) style) must be accessed atomically at every
// other site too. One plain read racing one atomic write is still a data
// race; the race detector only sees the schedules the tests produce,
// this analyzer sees the source.
//
// Three shapes are flagged: plain reads and writes of a target field,
// &x.counter escaping into a non-sync/atomic callee (which may then
// access it plainly), and by-value copies of structs whose field graph
// contains atomic state — a raw target field or a typed sync/atomic
// wrapper — since the copy duplicates the counter with a plain read.
// Accesses through locals freshly allocated in the same function are
// exempt (init-before-publish); anything else takes //sqlcm:allow with
// a reason. The durable fix is migrating the field to atomic.Int64 and
// friends, which makes the type system enforce what this check does.
var AtomicField = &Analyzer{
	Name: "atomicfield",
	Doc:  "fields accessed via sync/atomic anywhere must be accessed atomically everywhere; no plain uses, escapes, or struct copies",
	Run:  runAtomicField,
}

func runAtomicField(p *Pass) {
	targets := p.Prog.AtomicTargets()
	if len(targets) > 0 {
		p.watchHeld(heldSink{use: func(u fieldUse) {
			if !targets[u.obj] || u.atomicArg || u.fresh || p.allowed(u.pos) {
				return
			}
			switch u.kind {
			case accRead:
				p.Reportf(u.pos, "plain read of %s, which is accessed via sync/atomic elsewhere: use an atomic load (or migrate the field to a typed atomic)", fieldRef(u.obj))
			case accWrite:
				p.Reportf(u.pos, "plain write of %s, which is accessed via sync/atomic elsewhere: use an atomic store (or migrate the field to a typed atomic)", fieldRef(u.obj))
			case accAddr:
				p.Reportf(u.pos, "&%s escapes to a non-atomic callee; the pointee is accessed via sync/atomic elsewhere and must not be touched plainly", fieldRef(u.obj))
			}
		}})
	}
	checkAtomicCopies(p, targets)
}

// checkAtomicCopies flags by-value copies of structs embedding atomic
// state, in the positions a copy happens: assignment sources,
// dereferences, call arguments, return values, and range values.
func checkAtomicCopies(p *Pass, targets map[types.Object]bool) {
	info := p.Pkg.Info
	check := func(e ast.Expr) {
		if e == nil {
			return
		}
		switch unparen(e).(type) {
		case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
			// Value read of an existing object — a copy. Composite
			// literals and call results construct fresh values and are
			// not copies of shared state.
		default:
			return
		}
		t := info.TypeOf(e)
		if t == nil || info.Types[e].IsType() {
			return // new(T) and conversions name a type, not a value
		}
		if _, isStruct := t.Underlying().(*types.Struct); !isStruct {
			return
		}
		if !containsAtomicState(t, targets, map[types.Type]bool{}) {
			return
		}
		if p.allowed(e.Pos()) {
			return
		}
		p.Reportf(e.Pos(), "copies a %s value containing atomic state; the copy reads the atomic field(s) plainly — pass a pointer instead", typeRef(t))
	}
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, e := range n.Rhs {
					check(e)
				}
			case *ast.ValueSpec:
				for _, e := range n.Values {
					check(e)
				}
			case *ast.CallExpr:
				for _, e := range n.Args {
					check(e)
				}
			case *ast.ReturnStmt:
				for _, e := range n.Results {
					check(e)
				}
			case *ast.RangeStmt:
				// for _, v := range xs: v copies the element.
				if n.Value != nil {
					if t := info.TypeOf(n.Value); t != nil {
						if _, isStruct := t.Underlying().(*types.Struct); isStruct &&
							containsAtomicState(t, targets, map[types.Type]bool{}) &&
							!p.allowed(n.Value.Pos()) {
							p.Reportf(n.Value.Pos(), "range copies %s elements containing atomic state; iterate by index or store pointers", typeRef(t))
						}
					}
				}
			}
			return true
		})
	}
}
