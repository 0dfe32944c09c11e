package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// The lock-hierarchy analyzers are the static half of SQLCM's lock
// contract (the runtime half is the sqlcmlockdep build of
// internal/lockcheck). The //sqlcm:lock annotations on mutex fields
// declare a partial-order DAG of lock classes; the analyzers listen to
// the shared held-set walk (heldwalk.go) and check every lock-relevant
// program point against it.

// LockOrder checks acquisitions against the declared order: every held
// class must have a declared path to the acquired one, whether the
// acquire is a direct Lock call, a same-package callee's (one-level
// summary) or a cross-package callee's (Facts.LockClasses).
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "locks are acquired in the declared //sqlcm:lock order, never twice, and //sqlcm:lock-held callees are called with the class held",
	Run:  runLockOrder,
}

// LockUnlock checks lock/unlock balance along every path.
var LockUnlock = &Analyzer{
	Name: "lockunlock",
	Doc:  "every Lock is released (or defer-released) on every exit path, and only held locks are unlocked",
	Run:  runLockUnlock,
}

// LockSend flags operations that can block, or run arbitrary
// backpressure logic, inside a critical section. Sends in a select with
// a default clause cannot block and are exempt.
var LockSend = &Analyzer{
	Name: "locksend",
	Doc:  "no blocking channel send or outbox enqueue while holding a lock",
	Run:  runLockSend,
}

// LockClass checks the declarations themselves: every named mutex field
// carries a well-formed //sqlcm:lock annotation, the declared order is
// an acyclic graph over known classes, and every lock site resolves to a
// declared class.
var LockClass = &Analyzer{
	Name: "lockclass",
	Doc:  "mutex fields carry a //sqlcm:lock class, the declared order is acyclic, and every lock site resolves to a class",
	Run:  runLockClass,
}

const noOrderPath = "no declared order path %s -> %s (see docs/lock-order.md)"

func runLockOrder(p *Pass) {
	order := p.Prog.lockOrder()
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
		case evCall:
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
		}
	}})
}

func runLockUnlock(p *Pass) {
	p.watchHeld(heldSink{lock: func(ev lockEvent) {
		switch ev.kind {
		case evRelease:
			// An unlock of a declared handoff class is the caller's lock,
			// released here.
			if _, ok := ev.held[ev.class]; !ok && !ev.handoff[ev.class] {
				p.reportUnlessAllowed(ev.pos, "unlock of %q which is not held on this path", ev.class)
			}
		case evCall:
			for _, class := range ev.sum.releases {
				_, held := ev.held[class]
				if _, net := ev.sum.net[class]; !held && !net && !ev.handoff[class] {
					p.reportUnlessAllowed(ev.pos, "call to %s releases %q which is not held", funcRef(ev.callee, p.Pkg.Types), class)
				}
			}
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
		}
	}})
}

func runLockSend(p *Pass) {
	p.watchHeld(heldSink{lock: func(ev lockEvent) {
		if len(ev.held) == 0 {
			return
		}
		switch ev.kind {
		case evSend:
			p.reportUnlessAllowed(ev.pos, "channel send while holding %s; move the send outside the critical section or use select with default", quotedList(sortedKeys(ev.held)))
		case evEnqueue:
			p.reportUnlessAllowed(ev.pos, "outbox enqueue while holding %s; enqueue after unlocking", quotedList(sortedKeys(ev.held)))
		}
	}})
}

func runLockClass(p *Pass) {
	order := p.Prog.lockOrder()
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
	p.watchHeld(heldSink{lock: func(ev lockEvent) {
		if ev.kind == evUnresolved {
			sel := unparen(ev.call.Fun).(*ast.SelectorExpr)
			p.reportUnlessAllowed(ev.pos, "cannot resolve the lock class of %s.%s(); annotate the field with //sqlcm:lock or keep the receiver locally inferable", exprText(sel.X), sel.Sel.Name)
		}
	}})
}

// checkMutexFields requires every named mutex field of a struct to carry
// a well-formed //sqlcm:lock annotation. Embedded mutexes are the
// lockcheck wrappers themselves, not independent locks.
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

// isMutexType reports whether t is one of the lockable mutex types —
// sync.Mutex, sync.RWMutex, or the internal/lockcheck wrappers of the
// same names — possibly behind a pointer.
func isMutexType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	pkg, name := named.Obj().Pkg().Name(), named.Obj().Name()
	return (pkg == "sync" || pkg == "lockcheck") && (name == "Mutex" || name == "RWMutex")
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
// lockclass analyzer when it runs over the declaring package.
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
