package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// The lock-hierarchy analyzer is SQLCM's one enforcer of its lock
// contract. The //sqlcm:lock annotations on mutex fields declare a
// partial-order DAG of lock classes; the analyzer listens to the shared
// held-set walk (heldwalk.go) and checks every lock-relevant program point
// against it.

// LockOrder checks the lock hierarchy:
//
//   - order: every held class has a declared path to the one acquired,
//     whether the acquire is a direct Lock call or anywhere down a
//     callee's call chain, in this package or another
//     (Facts.LockClasses); no class is acquired twice; //sqlcm:lock-held
//     callees are called with the class held; no call through an
//     interface method or a function value, whose locks no summary
//     shows, is made with a latch held;
//   - balance: every Lock is released (or defer-released) on every exit
//     path, and only held locks are unlocked;
//   - blocking: no channel send that can block (a send in a select with a
//     default clause cannot) and no outbox enqueue inside a critical
//     section;
//   - classes: every named mutex field carries a well-formed
//     //sqlcm:lock annotation, the declared order is an acyclic graph over
//     known classes, and every lock site resolves to a declared class.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "locks follow the declared //sqlcm:lock hierarchy: acquired in order, released on every path, never held across a blocking send or an enqueue, every mutex classed",
	Run:  runLockOrder,
}

const noOrderPath = "no declared order path %s -> %s (see docs/lock-order.md)"

func runLockOrder(p *Pass) {
	order := p.Prog.lockOrder()
	checkLockDecls(p, order)
	p.watchHeld(heldSink{lock: func(ev lockEvent) {
		switch ev.kind {
		case evAcquire:
			if prev, ok := ev.held[ev.class]; ok {
				if !prev.maybe {
					p.reportUnlessAllowed(ev.pos, "acquiring %q while already holding it (acquired at %s)", ev.class, p.fileLine(prev.pos))
				}
				return
			}
			for _, h := range sortedKeys(ev.held) {
				if !order.reachable(h, ev.class) {
					p.reportUnlessAllowed(ev.pos, "acquiring %q while holding %q: "+noOrderPath, ev.class, h, h, ev.class)
				}
			}
		case evRelease:
			// An unlock of a declared handoff class is the caller's lock,
			// released here.
			if _, ok := ev.held[ev.class]; !ok && !ev.handoff[ev.class] {
				p.reportUnlessAllowed(ev.pos, "unlock of %q which is not held on this path", ev.class)
			}
		case evCall:
			checkLockCall(p, order, ev)
		case evExit:
			// Locally acquired locks must have been released or be covered
			// by a defer, and declared lock-release classes must actually
			// have been released.
			for _, class := range sortedKeys(ev.held) {
				if e := ev.held[class]; !e.deferred && !e.fromCaller && !e.maybe {
					p.reportUnlessAllowed(ev.pos, "lock %q acquired at %s may still be held at this return (missing unlock or defer)", class, p.fileLine(e.pos))
				}
			}
			for _, class := range sortedKeys(ev.handoff) {
				if e, ok := ev.held[class]; ok && !e.deferred && !e.maybe {
					p.reportUnlessAllowed(ev.pos, "//sqlcm:lock-release declares %q released, but it may still be held at this return", class)
				}
			}
		case evSend:
			if len(ev.held) > 0 {
				p.reportUnlessAllowed(ev.pos, "channel send while holding %s; move the send outside the critical section or use select with default", quotedList(sortedKeys(ev.held)))
			}
		case evEnqueue:
			if len(ev.held) > 0 {
				p.reportUnlessAllowed(ev.pos, "outbox enqueue while holding %s; enqueue after unlocking", quotedList(sortedKeys(ev.held)))
			}
		case evDynamic:
			if len(ev.held) > 0 {
				target := "function value " + exprText(ev.call.Fun)
				if ev.callee != nil {
					target = "interface method " + funcRef(ev.callee, p.Pkg.Types)
				}
				p.reportUnlessAllowed(ev.pos, "call through %s while holding %s: the locks it takes are invisible to the order check; call it after unlocking, or say with //sqlcm:allow why it takes no undeclared latch", target, quotedList(sortedKeys(ev.held)))
			}
		case evUnresolved:
			sel := unparen(ev.call.Fun).(*ast.SelectorExpr)
			p.reportUnlessAllowed(ev.pos, "cannot resolve the lock class of %s.%s(); annotate the field with //sqlcm:lock or keep the receiver locally inferable", exprText(sel.X), sel.Sel.Name)
		}
	}})
}

// checkLockCall applies a callee's lock summary at a call site: the
// classes it requires held, the ones it may acquire (ordered against the
// caller's held set) and the ones it releases.
func checkLockCall(p *Pass, order *lockOrder, ev lockEvent) {
	name, verb := funcRef(ev.callee, p.Pkg.Types), "acquires"
	if ev.sum.external {
		verb = "may acquire"
	}
	for _, req := range ev.sum.requires {
		if _, ok := ev.held[req]; !ok {
			p.reportUnlessAllowed(ev.pos, "call to %s requires %q to be held (//sqlcm:lock-held)", name, req)
		}
	}
	for _, class := range ev.sum.acquires {
		if slices.Contains(ev.sum.releases, class) {
			// The callee manages this class's lifecycle itself (lock
			// handoff): any internal re-acquire happens after the
			// declared release, and the lock-held check above already
			// validated the entry state.
			continue
		}
		if prev, ok := ev.held[class]; ok {
			if !prev.maybe {
				p.reportUnlessAllowed(ev.pos, "call to %s %s %q which is already held", name, verb, class)
			}
			continue
		}
		for _, h := range sortedKeys(ev.held) {
			if !order.reachable(h, class) {
				p.reportUnlessAllowed(ev.pos, "call to %s %s %q while holding %q: "+noOrderPath, name, verb, class, h, h, class)
			}
		}
	}
	for _, class := range ev.sum.releases {
		_, held := ev.held[class]
		if _, net := ev.sum.net[class]; !held && !net && !ev.handoff[class] {
			p.reportUnlessAllowed(ev.pos, "call to %s releases %q which is not held", name, class)
		}
	}
}

// checkLockDecls checks the declarations themselves: defects of the
// declared order, lock-held/lock-release directives naming unknown
// classes, and mutex fields with a missing or malformed annotation.
func checkLockDecls(p *Pass, order *lockOrder) {
	for _, prob := range order.problems {
		if prob.pkg == p.Pkg {
			p.Reportf(prob.pos, "%s", prob.msg)
		}
	}
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				for _, dir := range []string{"lock-held", "lock-release"} {
					for _, class := range funcDirectiveArgs(n, dir) {
						if order.classes[class] == nil {
							p.reportUnlessAllowed(n.Pos(), "//sqlcm:%s names unknown class %q", dir, class)
						}
					}
				}
				return false
			case *ast.TypeSpec:
				if st, ok := n.Type.(*ast.StructType); ok {
					checkMutexFields(p, n.Name.Name, st)
				}
			}
			return true
		})
	}
}

// checkMutexFields requires every named mutex field of a struct to carry
// a well-formed //sqlcm:lock annotation. An embedded mutex is not checked.
func checkMutexFields(p *Pass, typeName string, st *ast.StructType) {
	for _, field := range st.Fields.List {
		if len(field.Names) == 0 || !isMutexType(p.Pkg.Info.TypeOf(field.Type)) {
			continue
		}
		_, _, found, bad := lockDirective(field)
		switch {
		case bad != "":
			p.Reportf(field.Pos(), "malformed //sqlcm:lock annotation: %s", bad)
		case !found:
			for _, name := range field.Names {
				p.Reportf(field.Pos(), "mutex field %s.%s.%s has no //sqlcm:lock annotation", p.Pkg.Types.Name(), typeName, name.Name)
			}
		}
	}
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex, possibly
// behind a pointer.
func isMutexType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	pkg, name := named.Obj().Pkg().Name(), named.Obj().Name()
	return pkg == "sync" && (name == "Mutex" || name == "RWMutex")
}

// lockClass is one declared lock class: a node of the order DAG.
type lockClass struct {
	// after lists the classes that may legally be held when acquiring
	// this one; the union across fields when several mutex fields declare
	// the same class.
	after  map[string]bool
	decl   token.Pos // first field declaration carrying the annotation
	pkg    *Package  // the package of decl
	fields []string  // "pkg.Type.field" mutexes of this class, sorted
	guards []string  // "pkg.Type.field" names the class protects, sorted
}

// lockOrder is the program's declared lock-order DAG.
type lockOrder struct {
	classes  map[string]*lockClass
	reach    map[[2]string]bool // reachability cache
	problems []orderProblem
}

// orderProblem is a defect of the declared order itself, reported by the
// lockorder analyzer when it runs over the declaring package.
type orderProblem struct {
	pkg *Package
	pos token.Pos
	msg string
}

// lockOrder builds (once) the declared order from every package's
// LockDecls and Guards facts and validates it.
func (p *Program) lockOrder() *lockOrder {
	if p.order != nil {
		return p.order
	}
	o := &lockOrder{classes: map[string]*lockClass{}, reach: map[[2]string]bool{}}
	p.order = o
	for _, pkg := range p.Packages {
		for _, d := range pkg.Facts.LockDecls {
			c := o.classes[d.Class]
			if c == nil {
				c = &lockClass{after: map[string]bool{}, decl: d.Pos, pkg: pkg}
				o.classes[d.Class] = c
			}
			for _, a := range d.After {
				c.after[a] = true
			}
			c.fields = append(c.fields, d.Field)
		}
	}
	for _, pkg := range p.Packages {
		for class, fields := range pkg.Facts.Guards {
			if c := o.classes[class]; c != nil {
				c.guards = append(c.guards, fields...)
			}
		}
	}
	for _, c := range o.classes {
		slices.Sort(c.fields)
		slices.Sort(c.guards)
		c.guards = slices.Compact(c.guards)
	}
	o.validate()
	return o
}

// reachable reports whether the declared order permits acquiring "to"
// while "from" is held: a transitive chain of "after" edges from "from"
// to "to".
func (o *lockOrder) reachable(from, to string) bool {
	if from == to {
		return false
	}
	key := [2]string{from, to}
	if ok, cached := o.reach[key]; cached {
		return ok
	}
	seen := map[string]bool{from: true}
	queue := []string{from}
	found := false
	for len(queue) > 0 && !found {
		cur := queue[0]
		queue = queue[1:]
		for name, c := range o.classes {
			if seen[name] || !c.after[cur] {
				continue
			}
			if name == to {
				found = true
				break
			}
			seen[name] = true
			queue = append(queue, name)
		}
	}
	o.reach[key] = found
	return found
}

// validate records unknown classes in "after" clauses and the first
// cycle in the declared DAG.
func (o *lockOrder) validate() {
	names := sortedKeys(o.classes)
	problem := func(class, format string, args ...any) {
		c := o.classes[class]
		o.problems = append(o.problems, orderProblem{pkg: c.pkg, pos: c.decl, msg: fmt.Sprintf(format, args...)})
	}
	for _, n := range names {
		for _, a := range sortedKeys(o.classes[n].after) {
			if o.classes[a] == nil {
				problem(n, "lock class %q is declared after unknown class %q", n, a)
			}
		}
	}
	// Cycle detection over the after edges (a -> c for each a in c.after).
	const (
		white = iota
		grey
		black
	)
	color := map[string]int{}
	var path []string
	var visit func(n string) []string
	visit = func(n string) []string {
		color[n] = grey
		path = append(path, n)
		for _, succ := range names {
			if !o.classes[succ].after[n] {
				continue
			}
			switch color[succ] {
			case grey:
				// Found a back edge: slice out the cycle.
				for i, p := range path {
					if p == succ {
						return append(append([]string(nil), path[i:]...), succ)
					}
				}
			case white:
				if cyc := visit(succ); cyc != nil {
					return cyc
				}
			}
		}
		color[n] = black
		path = path[:len(path)-1]
		return nil
	}
	for _, n := range names {
		if color[n] != white {
			continue
		}
		path = path[:0]
		if cyc := visit(n); cyc != nil {
			problem(cyc[0], "declared lock order contains a cycle: %s", strings.Join(cyc, " -> "))
			return
		}
	}
}

// fileLine renders pos as file:line for "acquired at" cross references.
func (p *Pass) fileLine(pos token.Pos) string {
	at := p.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", at.Filename, at.Line)
}

// funcRef names a callee the way diagnostics spell it: "Type.method" or
// "func", package-qualified when it lives outside the package from.
func funcRef(fn *types.Func, from *types.Package) string {
	name := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil && fn.Pkg() != from {
		name = fn.Pkg().Name() + "." + name
	}
	return name
}

// exprText renders simple selector chains for diagnostics.
func exprText(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprText(x.X) + "." + x.Sel.Name
	case *ast.ParenExpr:
		return exprText(x.X)
	case *ast.StarExpr:
		return "*" + exprText(x.X)
	case *ast.IndexExpr:
		return exprText(x.X) + "[...]"
	case *ast.CallExpr:
		return exprText(x.Fun) + "(...)"
	}
	return "<expr>"
}

func quotedList(classes []string) string {
	quoted := make([]string, len(classes))
	for i, c := range classes {
		quoted[i] = fmt.Sprintf("%q", c)
	}
	return strings.Join(quoted, ", ")
}
