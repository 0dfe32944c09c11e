package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// This file is the one flow-approximate held-set walk every lock-aware
// analyzer shares: the data-protection checks (guardedby, cowpublish)
// subscribe to its field-use events, the lock-hierarchy check (lockorder)
// to its lock events. Branches
// are walked on cloned held-sets and merged with a maybe-held union (a
// branch ending in return or panic is checked at its exit and discarded),
// loops are walked once, function literals are analyzed inline at their
// syntactic position (and again at each call of the local they are bound
// to), and same-package calls replay the callee's summary: its net
// held-set effect and every class it may reach. A call through an
// interface method or a function value reaches code the walk cannot see
// and raises an event of its own. Lock receivers, field accesses and
// callees resolve through go/types, so a lock or a guarded field is
// recognized no matter how the expression spells it.

// accessKind classifies one use of a struct field.
type accessKind int

const (
	accRead  accessKind = iota // value read (incl. map/index/element reads)
	accWrite                   // assignment target, IncDec, delete, compound assign
	accAddr                    // address taken (&x.f)
	accCall                    // method called on the field (x.f.Load(), x.wg.Wait())
)

func (k accessKind) String() string {
	switch k {
	case accWrite:
		return "write"
	case accAddr:
		return "address-of"
	case accCall:
		return "call"
	}
	return "read"
}

// heldEntry is how one lock class is held at a program point.
type heldEntry struct {
	pos   token.Pos // acquisition site
	write bool      // held via Lock/TryLock, not just the read side
	// maybe marks a class held on only some merged control-flow paths
	// ("if bounded { mu.Lock() }"). Ordering checks still apply
	// — the lock really is held on one path — but same-class and leak
	// reports are suppressed: the matching conditional unlock is beyond
	// this walk's precision.
	maybe      bool
	deferred   bool // a defer releases it at function exit
	fromCaller bool // seeded by //sqlcm:lock-held or //sqlcm:lock-release, or inherited by an inline callback
}

// fieldUse is one access to a struct field, delivered to subscribers
// together with the live held-set at that point. The held map must not be
// retained past the callback.
type fieldUse struct {
	obj   types.Object
	pos   token.Pos
	kind  accessKind
	call  string // method name when kind == accCall
	fresh bool   // receiver chain roots at an unpublished local
	held  map[string]*heldEntry
}

// lockEventKind classifies the lock-relevant program points of the walk.
type lockEventKind int

const (
	evAcquire    lockEventKind = iota // class is about to be acquired
	evRelease                         // class is about to be released
	evUnresolved                      // Lock/Unlock call whose receiver has no declared class
	evSend                            // channel send that can block
	evEnqueue                         // outbox Enqueue/TryEnqueue call
	evCall                            // call to a function with a lock summary
	evDynamic                         // call through an interface method or a function value
	evExit                            // return statement, or falling off the function's end
)

// lockEvent is one lock-relevant program point. held is the live held-set
// before the event takes effect and must not be retained.
type lockEvent struct {
	kind    lockEventKind
	pos     token.Pos
	held    map[string]*heldEntry
	handoff map[string]bool // the walked function's //sqlcm:lock-release classes
	class   string          // evAcquire, evRelease
	call    *ast.CallExpr   // evUnresolved, evDynamic
	callee  *types.Func     // evCall; evDynamic through an interface method
	sum     *heldSummary    // evCall
}

// heldSink is one analyzer's subscription to the walk; nil callbacks are
// skipped.
type heldSink struct {
	use  func(fieldUse)
	lock func(lockEvent)
}

// heldSummary is the interprocedural digest of a function, replayed at
// same-package call sites. For a callee in another package it is
// synthesized from Facts.LockClasses (external): the caller owes the
// ordering proof for every class the callee can reach, but the held-set
// is not mutated — unlock balance is the callee's own package's walk to
// report.
type heldSummary struct {
	requires []string        // //sqlcm:lock-held classes, sorted
	releases []string        // //sqlcm:lock-release classes, sorted
	acquires []string        // classes the body or its callees may acquire, sorted
	net      map[string]bool // class -> write-mode held at fall-off exit
	external bool
}

// enqueueOps are the outbox methods that must not be called under a lock.
var enqueueOps = map[string]bool{"Enqueue": true, "TryEnqueue": true}

// lockAcquireOps and lockReleaseOps are the methods that take and release
// a latch when called through a selector.
var (
	lockAcquireOps = map[string]bool{"Lock": true, "RLock": true, "TryLock": true, "TryRLock": true}
	lockReleaseOps = map[string]bool{"Unlock": true, "RUnlock": true}
)

// walkHeldPackage walks every function of the package once for all
// subscribers: pass one computes per-function summaries with events
// disabled, pass two re-walks with summaries applied and events delivered.
func walkHeldPackage(prog *Program, pkg *Package, sinks []heldSink) {
	if len(sinks) == 0 {
		return
	}
	sums := map[types.Object]*heldSummary{}
	for _, deliver := range [][]heldSink{nil, sinks} {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				s := walkHeldFunc(prog, pkg, fn, sums, deliver)
				if obj := pkg.Info.Defs[fn.Name]; obj != nil && deliver == nil {
					sums[obj] = s
				}
			}
		}
	}
}

// walkHeldFunc walks one function and returns its summary.
func walkHeldFunc(prog *Program, pkg *Package, fn *ast.FuncDecl, sums map[types.Object]*heldSummary, sinks []heldSink) *heldSummary {
	s := &heldSummary{
		requires: funcDirectiveArgs(fn, "lock-held"),
		releases: funcDirectiveArgs(fn, "lock-release"),
		net:      map[string]bool{},
	}
	slices.Sort(s.requires)
	slices.Sort(s.releases)
	w := &heldWalker{
		prog:     prog,
		pkg:      pkg,
		info:     pkg.Info,
		sums:     sums,
		sinks:    sinks,
		fresh:    freshLocals(pkg.Info, fn),
		held:     map[string]*heldEntry{},
		handoff:  map[string]bool{},
		acquired: map[string]bool{},
		closures: localClosures(pkg.Info, fn),
		walking:  map[*ast.FuncLit]bool{},
	}
	for _, class := range s.requires {
		w.held[class] = &heldEntry{pos: fn.Pos(), write: true, fromCaller: true}
	}
	for _, class := range s.releases {
		w.held[class] = &heldEntry{pos: fn.Pos(), write: true, fromCaller: true}
		w.handoff[class] = true
	}
	if fn.Body == nil {
		return s
	}
	if !w.walkBlock(fn.Body.List) {
		w.emitLock(lockEvent{kind: evExit, pos: fn.Body.Rbrace})
	}
	// Facts.LockClasses reaches through every call chain, not only the
	// body's own Lock calls.
	for _, class := range pkg.Facts.LockClasses[pkg.Info.Defs[fn.Name]] {
		w.acquired[class] = true
	}
	s.acquires = sortedKeys(w.acquired)
	for class, e := range w.held {
		if !e.deferred && !e.fromCaller && !e.maybe {
			s.net[class] = e.write
		}
	}
	return s
}

// heldWalker tracks the held lock classes along one control-flow path.
// Branches run on clones; everything but held is shared.
type heldWalker struct {
	prog     *Program
	pkg      *Package
	info     *types.Info
	sums     map[types.Object]*heldSummary
	sinks    []heldSink
	fresh    map[types.Object]bool
	held     map[string]*heldEntry
	handoff  map[string]bool // //sqlcm:lock-release classes of the function
	acquired map[string]bool // every class the function body acquires
	closures map[types.Object][]*ast.FuncLit
	walking  map[*ast.FuncLit]bool // literals on the walk stack: a recursive closure's own call
}

func (w *heldWalker) clone() *heldWalker {
	c := *w
	c.held = make(map[string]*heldEntry, len(w.held))
	for k, v := range w.held {
		e := *v
		c.held[k] = &e
	}
	return &c
}

// unionInto merges o's held-set in: a class held on any incoming path
// stays held (the conservative choice for ordering and access checks),
// downgraded to maybe when the paths disagree and to the read side when
// only one path holds the write lock.
func (w *heldWalker) unionInto(o *heldWalker) {
	for k, v := range o.held {
		if mine, ok := w.held[k]; ok {
			mine.maybe = mine.maybe || v.maybe
			mine.deferred = mine.deferred || v.deferred
			mine.write = mine.write && v.write
		} else {
			c := *v
			c.maybe = true
			w.held[k] = &c
		}
	}
	for k, mine := range w.held {
		if _, ok := o.held[k]; !ok {
			mine.maybe = true
		}
	}
}

func (w *heldWalker) walkBlock(stmts []ast.Stmt) bool {
	for _, st := range stmts {
		if w.walkStmt(st) {
			return true
		}
	}
	return false
}

// walkStmt analyzes one statement and reports whether it terminates the
// current path.
func (w *heldWalker) walkStmt(s ast.Stmt) bool {
	switch st := s.(type) {
	case *ast.ExprStmt:
		w.scanExpr(st.X, accRead)
		if call, ok := st.X.(*ast.CallExpr); ok && isBuiltinCall(w.info, call, "panic") {
			// A panicking path dies (or is quarantined by a recover
			// upstream); held locks are not a leak here.
			return true
		}
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			w.scanExpr(e, accRead)
		}
		for _, e := range st.Lhs {
			if _, ok := e.(*ast.Ident); ok {
				continue // plain local write
			}
			w.scanExpr(e, accWrite)
		}
	case *ast.IncDecStmt:
		w.scanExpr(st.X, accWrite)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.scanExpr(v, accRead)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			w.scanExpr(e, accRead)
		}
		w.emitLock(lockEvent{kind: evExit, pos: st.Pos()})
		return true
	case *ast.BranchStmt:
		return true
	case *ast.DeferStmt:
		w.handleDefer(st.Call)
	case *ast.GoStmt:
		// The goroutine starts with an empty held-set; its body is
		// checked independently.
		if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
			gw := w.clone()
			gw.held = map[string]*heldEntry{}
			gw.walkBlock(lit.Body.List)
		} else {
			w.scanExpr(st.Call.Fun, accRead)
		}
		for _, a := range st.Call.Args {
			w.scanExpr(a, accRead)
		}
	case *ast.SendStmt:
		w.emitLock(lockEvent{kind: evSend, pos: st.Arrow})
		w.scanExpr(st.Chan, accRead)
		w.scanExpr(st.Value, accRead)
	case *ast.IfStmt:
		if st.Init != nil {
			w.walkStmt(st.Init)
		}
		w.scanExpr(st.Cond, accRead)
		thenW := w.clone()
		thenTerm := thenW.walkBlock(st.Body.List)
		elseW := w.clone()
		elseTerm := false
		if st.Else != nil {
			elseTerm = elseW.walkStmt(st.Else)
		}
		switch {
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			w.held = elseW.held
		case elseTerm:
			w.held = thenW.held
		default:
			w.held = thenW.held
			w.unionInto(elseW)
		}
	case *ast.BlockStmt:
		return w.walkBlock(st.List)
	case *ast.ForStmt:
		if st.Init != nil {
			w.walkStmt(st.Init)
		}
		w.scanExpr(st.Cond, accRead)
		body := w.clone()
		body.walkBlock(st.Body.List)
		if st.Post != nil {
			body.walkStmt(st.Post)
		}
		w.unionInto(body)
	case *ast.RangeStmt:
		w.scanExpr(st.X, accRead)
		body := w.clone()
		body.walkBlock(st.Body.List)
		w.unionInto(body)
	case *ast.SwitchStmt:
		if st.Init != nil {
			w.walkStmt(st.Init)
		}
		w.scanExpr(st.Tag, accRead)
		w.walkCases(st.Body)
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			w.walkStmt(st.Init)
		}
		if st.Assign != nil {
			w.walkStmt(st.Assign)
		}
		w.walkCases(st.Body)
	case *ast.SelectStmt:
		w.walkSelect(st)
	case *ast.LabeledStmt:
		return w.walkStmt(st.Stmt)
	}
	return false
}

// walkCases walks switch case bodies on clones and unions the states of
// the paths that fall through.
func (w *heldWalker) walkCases(body *ast.BlockStmt) {
	for _, cs := range body.List {
		cc, ok := cs.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			w.scanExpr(e, accRead)
		}
		cw := w.clone()
		if !cw.walkBlock(cc.Body) {
			w.unionInto(cw)
		}
	}
}

// walkSelect walks a select statement. Sends in a select that has a
// default clause cannot block and raise no evSend.
func (w *heldWalker) walkSelect(st *ast.SelectStmt) {
	hasDefault := false
	for _, cs := range st.Body.List {
		if cc, ok := cs.(*ast.CommClause); ok && cc.Comm == nil {
			hasDefault = true
		}
	}
	for _, cs := range st.Body.List {
		cc, ok := cs.(*ast.CommClause)
		if !ok {
			continue
		}
		cw := w.clone()
		if send, ok := cc.Comm.(*ast.SendStmt); ok && hasDefault {
			cw.scanExpr(send.Chan, accRead)
			cw.scanExpr(send.Value, accRead)
		} else if cc.Comm != nil {
			cw.walkStmt(cc.Comm)
		}
		if !cw.walkBlock(cc.Body) {
			w.unionInto(cw)
		}
	}
}

// handleDefer processes a deferred call. A deferred unlock — direct, or
// inside a deferred function literal — marks the class as covered and
// keeps it held for the rest of the walk (exactly what the access checks
// want); a deferred literal's body and any other deferred call are
// scanned under the current held-set, the conservative approximation.
func (w *heldWalker) handleDefer(call *ast.CallExpr) {
	if w.markDeferredUnlock(call) {
		return
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				w.markDeferredUnlock(c)
			}
			return true
		})
		w.walkLiteral(lit)
		return
	}
	w.scanExpr(call.Fun, accRead)
	for _, a := range call.Args {
		w.scanExpr(a, accRead)
	}
}

// walkLiteral walks a function literal inline under the current held-set:
// literals run synchronously at their syntactic position in this codebase
// (scan callbacks). The locks held there are the enclosing function's
// responsibility: ordering inside the literal is still checked against
// them, but a return inside the literal is not a leak.
func (w *heldWalker) walkLiteral(lit *ast.FuncLit) {
	if w.walking[lit] {
		return
	}
	w.walking[lit] = true
	defer delete(w.walking, lit)
	lw := w.clone()
	for _, e := range lw.held {
		e.fromCaller = true
	}
	lw.walkBlock(lit.Body.List)
}

// markDeferredUnlock reports whether call is an unlock of a declared
// class, flagging the class as defer-released when it is held.
func (w *heldWalker) markDeferredUnlock(call *ast.CallExpr) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !lockReleaseOps[sel.Sel.Name] {
		return false
	}
	class, ok := lockClassOf(w.prog, w.info, sel.X)
	if e := w.held[class]; ok && e != nil {
		e.deferred = true
	}
	return ok
}

// scanExpr classifies field uses in an expression, applying lock
// operations and call summaries along the way.
func (w *heldWalker) scanExpr(e ast.Expr, kind accessKind) {
	if e == nil {
		return
	}
	switch x := e.(type) {
	case *ast.ParenExpr:
		w.scanExpr(x.X, kind)
	case *ast.SelectorExpr:
		if obj := fieldObjOf(w.info, x); obj != nil {
			w.emit(obj, x.Pos(), kind, "", w.isFresh(x.X))
		}
		w.scanExpr(x.X, accRead)
	case *ast.IndexExpr:
		// Writing through an index writes the container the field holds.
		w.scanExpr(x.X, kind)
		w.scanExpr(x.Index, accRead)
	case *ast.SliceExpr:
		w.scanExpr(x.X, kind)
		w.scanExpr(x.Low, accRead)
		w.scanExpr(x.High, accRead)
		w.scanExpr(x.Max, accRead)
	case *ast.StarExpr:
		w.scanExpr(x.X, kind)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			w.scanExpr(x.X, accAddr)
			return
		}
		w.scanExpr(x.X, accRead)
	case *ast.BinaryExpr:
		w.scanExpr(x.X, accRead)
		w.scanExpr(x.Y, accRead)
	case *ast.CallExpr:
		w.scanCall(x)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			w.scanExpr(el, accRead)
		}
	case *ast.KeyValueExpr:
		w.scanExpr(x.Key, accRead)
		w.scanExpr(x.Value, accRead)
	case *ast.TypeAssertExpr:
		w.scanExpr(x.X, accRead)
	case *ast.FuncLit:
		w.walkLiteral(x)
	case *ast.IndexListExpr:
		w.scanExpr(x.X, kind)
	}
}

// scanCall handles one call expression: a lock operation, a method on a
// field, a builtin, or a call whose callee's lock summary is applied.
func (w *heldWalker) scanCall(call *ast.CallExpr) {
	if isBuiltinCall(w.info, call, "delete") && len(call.Args) == 2 {
		// builtin delete mutates the map argument.
		w.scanExpr(call.Args[0], accWrite)
		w.scanExpr(call.Args[1], accRead)
		return
	}
	recv := call.Fun
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		op := sel.Sel.Name
		switch {
		case lockAcquireOps[op] || lockReleaseOps[op]:
			if class, ok := lockClassOf(w.prog, w.info, sel.X); !ok {
				w.emitLock(lockEvent{kind: evUnresolved, pos: call.Pos(), call: call})
			} else if lockAcquireOps[op] {
				w.acquire(class, op == "Lock" || op == "TryLock", call.Pos())
				return
			} else {
				w.emitLock(lockEvent{kind: evRelease, pos: call.Pos(), class: class})
				delete(w.held, class)
				return
			}
		case enqueueOps[op]:
			w.emitLock(lockEvent{kind: evEnqueue, pos: call.Pos()})
		}
		if obj := fieldObjOf(w.info, sel); obj != nil {
			// A field of function type invoked directly (x.fn(args)).
			w.emit(obj, sel.Pos(), accCall, op, w.isFresh(sel.X))
			recv = sel.X
		} else if inner, ok := unparen(sel.X).(*ast.SelectorExpr); ok {
			if obj := fieldObjOf(w.info, inner); obj != nil {
				// A method invoked on the field itself (x.f.Load(),
				// x.wg.Wait()): sel selects the method, inner the field.
				w.emit(obj, inner.Pos(), accCall, op, w.isFresh(inner.X))
				recv = inner.X
			}
		}
	}
	w.scanExpr(recv, accRead)
	for _, a := range call.Args {
		w.scanExpr(a, accRead)
	}
	fn, ok := calleeOf(w.info, call).(*types.Func)
	if !ok || isInterfaceMethod(fn) {
		w.dynamicCall(call, fn)
		return
	}
	callee := fn.Origin() // summaries and facts are keyed by the declaration, not an instantiation
	if s := w.sums[callee]; s != nil {
		w.emitLock(lockEvent{kind: evCall, pos: call.Pos(), callee: callee, sum: s})
		w.applySummary(s, call.Pos())
	} else if ff := w.prog.FactsFor(callee); ff != nil && callee.Pkg() != w.pkg.Types && len(ff.LockClasses[callee]) > 0 {
		w.emitLock(lockEvent{kind: evCall, pos: call.Pos(), callee: callee,
			sum: &heldSummary{acquires: ff.LockClasses[callee], external: true}})
	}
}

// dynamicCall handles a call the walk cannot resolve to a declaration:
// through an interface method (fn) or a function value. A literal bound
// to a local of this function is walked inline under the live held-set,
// as a callback; any other target raises evDynamic.
func (w *heldWalker) dynamicCall(call *ast.CallExpr, fn *types.Func) {
	if fn == nil {
		fun := unparen(call.Fun)
		if tv := w.info.Types[fun]; tv.IsType() || tv.IsBuiltin() {
			return // a conversion or a builtin
		}
		switch f := fun.(type) {
		case *ast.FuncLit:
			return // walked inline as the call's operand
		case *ast.Ident:
			if lits := w.closures[w.info.Uses[f]]; lits != nil {
				for _, lit := range lits {
					w.walkLiteral(lit)
				}
				return
			}
		}
	}
	w.emitLock(lockEvent{kind: evDynamic, pos: call.Pos(), call: call, callee: fn})
}

// isInterfaceMethod reports whether fn is declared by an interface, so a
// call to it dispatches dynamically.
func isInterfaceMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// applySummary replays a same-package callee's net lock effects at the
// call site.
func (w *heldWalker) applySummary(s *heldSummary, pos token.Pos) {
	for class, write := range s.net {
		if _, ok := w.held[class]; !ok {
			w.held[class] = &heldEntry{pos: pos, write: write}
		}
	}
	for _, class := range s.releases {
		delete(w.held, class)
	}
}

func (w *heldWalker) acquire(class string, write bool, pos token.Pos) {
	w.acquired[class] = true
	w.emitLock(lockEvent{kind: evAcquire, pos: pos, class: class})
	e, ok := w.held[class]
	if !ok {
		w.held[class] = &heldEntry{pos: pos, write: write}
		return
	}
	if e.maybe {
		// Held on only some merged paths; this acquire makes it definite.
		// Order against the other held classes still holds from the
		// original acquisition site.
		e.maybe = false
		e.pos = pos
		e.fromCaller = false
	}
	e.write = e.write || write
}

// emit delivers one field use to the subscribers.
func (w *heldWalker) emit(obj types.Object, pos token.Pos, kind accessKind, call string, fresh bool) {
	for _, s := range w.sinks {
		if s.use != nil {
			s.use(fieldUse{obj: obj, pos: pos, kind: kind, call: call, fresh: fresh, held: w.held})
		}
	}
}

// emitLock delivers one lock event to the subscribers.
func (w *heldWalker) emitLock(ev lockEvent) {
	ev.held, ev.handoff = w.held, w.handoff
	for _, s := range w.sinks {
		if s.lock != nil {
			s.lock(ev)
		}
	}
}

// isBuiltinCall reports whether call invokes the named predeclared
// function (not a shadowing local).
func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, builtin := info.Uses[id].(*types.Builtin)
	return builtin || info.Uses[id] == nil
}

// isFresh reports whether the receiver expression roots at a local that
// was freshly allocated in this function (init-before-publish: nobody
// else can see the value yet, so its fields need no lock).
func (w *heldWalker) isFresh(recv ast.Expr) bool {
	id := baseIdentOf(recv)
	if id == nil {
		return false
	}
	obj := w.info.Uses[id]
	if obj == nil {
		obj = w.info.Defs[id]
	}
	return obj != nil && w.fresh[obj]
}

// baseIdentOf walks a selector/index/star/paren chain to its root
// identifier, or nil when the chain roots at a call or literal.
func baseIdentOf(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// localClosures maps each local of fn that is assigned a function literal
// (f := func...; or f = func... after var f func...) to those literals.
func localClosures(info *types.Info, fn *ast.FuncDecl) map[types.Object][]*ast.FuncLit {
	out := map[types.Object][]*ast.FuncLit{}
	if fn.Body == nil {
		return out
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if st, ok := n.(*ast.AssignStmt); ok && len(st.Lhs) == len(st.Rhs) {
			for i, lhs := range st.Lhs {
				id, isID := lhs.(*ast.Ident)
				lit, isLit := unparen(st.Rhs[i]).(*ast.FuncLit)
				if !isID || !isLit {
					continue
				}
				if obj := info.ObjectOf(id); obj != nil {
					out[obj] = append(out[obj], lit)
				}
			}
		}
		return true
	})
	return out
}

// freshLocals collects the locals of fn assigned (anywhere in the body,
// flow-insensitively) from a fresh allocation: a composite literal, its
// address, or new(T). Accesses through such locals are exempt from guard
// checks — the init-before-publish pattern.
func freshLocals(info *types.Info, fn *ast.FuncDecl) map[types.Object]bool {
	fresh := map[types.Object]bool{}
	if fn.Body == nil {
		return fresh
	}
	mark := func(lhs, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok || !isFreshAlloc(info, rhs) {
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj != nil {
			fresh[obj] = true
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) == len(st.Rhs) {
				for i := range st.Lhs {
					mark(st.Lhs[i], st.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(st.Names) == len(st.Values) {
				for i := range st.Names {
					mark(st.Names[i], st.Values[i])
				}
			}
		}
		return true
	})
	return fresh
}

// isFreshAlloc reports whether the expression denotes a freshly
// allocated value: T{...}, &T{...}, or new(T).
func isFreshAlloc(info *types.Info, e ast.Expr) bool {
	switch x := unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		_, ok := unparen(x.X).(*ast.CompositeLit)
		return x.Op == token.AND && ok
	case *ast.CallExpr:
		return isBuiltinCall(info, x, "new")
	}
	return false
}

// sortedKeys returns the map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// heldFor reports whether class is held (maybe-held counts — the walk
// merges conservatively) and whether the write side is held.
func heldFor(held map[string]*heldEntry, class string) (ok, write bool) {
	e, ok := held[class]
	if !ok {
		return false, false
	}
	return true, e.write
}

// heldList renders the held classes for diagnostics.
func heldList(held map[string]*heldEntry) string {
	if len(held) == 0 {
		return "no lock"
	}
	return strings.Join(sortedKeys(held), ", ")
}

// funcDirectiveArgs returns the whitespace-separated arguments of every
// //sqlcm:<name> directive line in the function's doc comment.
func funcDirectiveArgs(fn *ast.FuncDecl, name string) []string {
	if fn.Doc == nil {
		return nil
	}
	var args []string
	prefix := "//sqlcm:" + name
	for _, c := range fn.Doc.List {
		text := strings.TrimSpace(c.Text)
		if rest, ok := strings.CutPrefix(text, prefix+" "); ok {
			args = append(args, strings.Fields(rest)...)
		}
	}
	return args
}
