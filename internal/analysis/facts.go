package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Facts are one package's exported analysis summaries, keyed by
// types.Object so downstream packages (processed later in topological
// order) can resolve a cross-package callee to its facts. They are the
// framework's replacement for whole-program analysis: each package is
// summarized once, and importers consult summaries instead of re-walking
// foreign bodies.
type Facts struct {
	// Callback marks //sqlcm:callback functions (run user rule code).
	Callback map[types.Object]bool
	// Recovered marks //sqlcm:recovered functions (sanctioned recover
	// sites).
	Recovered map[types.Object]bool
	// CancelCapable marks functions whose call reaches a cancellation
	// check: annotated //sqlcm:cancelpoint, or a body that checks
	// ctx.Err()/ctx.Done(), blocks on a stop channel, ranges over a
	// channel, or calls a cancel-capable function.
	CancelCapable map[types.Object]bool
	// CtxRoot maps //sqlcm:ctx-root functions to the annotation's
	// reason: sanctioned places where a fresh context may be minted
	// inside a ctx-strict package.
	CtxRoot map[types.Object]string
	// SelfOwned marks functions that, run as a goroutine ("go c.loop()"),
	// tie their own lifetime to an owner: they signal a WaitGroup.Done,
	// block on a stop channel, or range over a channel an owner closes.
	SelfOwned map[types.Object]bool
	// LockClasses maps a function to the declared lock classes it may
	// acquire, directly or transitively. This is the cross-package edge
	// the lockorder analyzer checks at call sites into another package.
	LockClasses map[types.Object][]string
	// LockFields maps //sqlcm:lock-annotated mutex fields to their class.
	LockFields map[types.Object]string
	// LockDecls lists the package's well-formed //sqlcm:lock declarations
	// in source order: the nodes and "after" edges of the lock-order DAG.
	LockDecls []LockDecl
	// Guards maps a lock class to the "pkg.Type.field" names this package
	// declares it protects (//sqlcm:guards lists, //sqlcm:guarded-by and
	// //sqlcm:cow fields), for the generated lock-order document.
	Guards map[string][]string
	// GuardedBy maps struct fields to the lock class that must be held to
	// touch them, from either spelling: a //sqlcm:guards list on the mutex
	// field, or a per-field //sqlcm:guarded-by <class> directive.
	GuardedBy map[types.Object]string
	// CowFields maps //sqlcm:cow-annotated copy-on-write pointer fields to
	// their declared writer class: stores require the class, loads are
	// lock-free, and the published value is immutable.
	CowFields map[types.Object]string
	// AtomicUse records every struct field this package accesses through a
	// raw sync/atomic call (atomic.AddInt64(&s.n, 1) style). The atomicfield
	// analyzer unions these across the program: a field atomically accessed
	// anywhere must be atomically accessed everywhere.
	AtomicUse map[types.Object]bool
	// CtxStrict is set by a package-doc //sqlcm:ctx-strict directive:
	// the ctxprop Background()/TODO() ban applies to this package even
	// outside the hardcoded serving-path list (used by fixtures).
	CtxStrict bool
}

// LockDecl is one //sqlcm:lock <class> [after <class>...] field annotation.
type LockDecl struct {
	Class string
	After []string  // classes that may be held when acquiring Class
	Field string    // "pkg.Type.field"
	Pos   token.Pos // the field declaration
}

func newFacts() *Facts {
	return &Facts{
		Callback:      map[types.Object]bool{},
		Recovered:     map[types.Object]bool{},
		CancelCapable: map[types.Object]bool{},
		CtxRoot:       map[types.Object]string{},
		SelfOwned:     map[types.Object]bool{},
		LockClasses:   map[types.Object][]string{},
		LockFields:    map[types.Object]string{},
		Guards:        map[string][]string{},
		GuardedBy:     map[types.Object]string{},
		CowFields:     map[types.Object]string{},
		AtomicUse:     map[types.Object]bool{},
	}
}

// funcSummary is the single-pass body summary a package-local fixpoint
// runs over.
type funcSummary struct {
	obj          types.Object
	directCancel bool
	selfOwned    bool
	callees      []types.Object
	classes      map[string]bool
}

// computeFacts fills pkg.Facts. Runs after type checking; packages are
// processed in topological order, so facts of imported module packages
// are already complete.
func computeFacts(prog *Program, pkg *Package) {
	f := newFacts()
	pkg.Facts = f
	info := pkg.Info

	// Pass 1: collect annotations — function directives, interface-method
	// directives, lock-field classes, package-level strictness.
	for _, file := range pkg.Files {
		if _, ok := directiveIn(file.Doc, "ctx-strict"); ok {
			f.CtxStrict = true
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				obj := info.Defs[d.Name]
				if obj == nil {
					continue
				}
				if hasDirective(d, "callback") {
					f.Callback[obj] = true
				}
				if hasDirective(d, "recovered") {
					f.Recovered[obj] = true
				}
				if hasDirective(d, "cancelpoint") {
					f.CancelCapable[obj] = true
				}
				if arg, ok := directiveIn(d.Doc, "ctx-root"); ok {
					f.CtxRoot[obj] = arg
				}
			case *ast.GenDecl:
				if d.Tok != token.TYPE {
					continue
				}
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					collectTypeFacts(info, f, pkg.Types.Name(), ts)
				}
			}
		}
	}

	// Pass 2: summarize every function body.
	var sums []*funcSummary
	byObj := map[types.Object]*funcSummary{}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj := info.Defs[fn.Name]
			if obj == nil {
				continue
			}
			s := summarizeFunc(prog, pkg, fn, obj)
			sums = append(sums, s)
			byObj[obj] = s
		}
	}

	// Pass 3: package-local fixpoint. Cross-package callees resolve to
	// finished facts; same-package call chains need iteration (no
	// syntactic ordering of mutually recursive helpers).
	for changed := true; changed; {
		changed = false
		for _, s := range sums {
			if !f.CancelCapable[s.obj] && (s.directCancel || anyCancelCapable(prog, f, byObj, s.callees)) {
				f.CancelCapable[s.obj] = true
				changed = true
			}
			before := len(f.LockClasses[s.obj])
			merged := mergeClasses(prog, f, byObj, s)
			if len(merged) != before {
				f.LockClasses[s.obj] = merged
				changed = true
			}
		}
	}
	for _, s := range sums {
		if s.selfOwned {
			f.SelfOwned[s.obj] = true
		}
	}
}

// collectTypeFacts records directives attached to a type declaration:
// //sqlcm:lock classes on struct mutex fields, //sqlcm:cancelpoint and
// //sqlcm:callback on interface method declarations (so dynamic dispatch
// through the interface inherits the facts).
func collectTypeFacts(info *types.Info, f *Facts, pkgName string, ts *ast.TypeSpec) {
	switch t := ts.Type.(type) {
	case *ast.StructType:
		qual := pkgName + "." + ts.Name.Name + "."
		// First pass: field-name → object map (guards lists name siblings)
		// and the per-field directives.
		fieldObjs := map[string]types.Object{}
		for _, field := range t.Fields.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil {
					fieldObjs[name.Name] = obj
				}
			}
			for dir, into := range map[string]map[types.Object]string{"guarded-by": f.GuardedBy, "cow": f.CowFields} {
				class, ok := fieldDirective(field, dir)
				if !ok || class == "" {
					continue
				}
				for _, name := range field.Names {
					if obj := info.Defs[name]; obj != nil {
						into[obj] = class
						f.Guards[class] = append(f.Guards[class], qual+name.Name)
					}
				}
			}
		}
		for _, field := range t.Fields.List {
			class, after, ok, bad := lockDirective(field)
			if !ok || bad != "" {
				continue // missing and malformed annotations are lockclass findings
			}
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil {
					f.LockFields[obj] = class
					f.LockDecls = append(f.LockDecls, LockDecl{Class: class, After: after, Field: qual + name.Name, Pos: field.Pos()})
				}
			}
			// //sqlcm:guards <field,...> on the mutex binds the named
			// sibling fields to this class ("none" declares explicitly that
			// the mutex guards no plain fields). Unresolvable names are
			// diagnosed by the guardedby analyzer, not here.
			if list, ok := fieldDirective(field, "guards"); ok {
				for _, fname := range splitGuardsList(list) {
					if obj := fieldObjs[fname]; obj != nil && fname != "none" {
						f.GuardedBy[obj] = class
						f.Guards[class] = append(f.Guards[class], qual+fname)
					}
				}
			}
		}
	case *ast.InterfaceType:
		for _, m := range t.Methods.List {
			for _, name := range m.Names {
				obj := info.Defs[name]
				if obj == nil {
					continue
				}
				if _, ok := fieldDirective(m, "cancelpoint"); ok {
					f.CancelCapable[obj] = true
				}
				if _, ok := fieldDirective(m, "callback"); ok {
					f.Callback[obj] = true
				}
			}
		}
	}
}

// summarizeFunc walks one body and records the bits the fixpoint and the
// analyzers need.
func summarizeFunc(prog *Program, pkg *Package, fn *ast.FuncDecl, obj types.Object) *funcSummary {
	info := pkg.Info
	s := &funcSummary{obj: obj, classes: map[string]bool{}}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isCtxCancelCheck(info, n) {
				s.directCancel = true
			}
			if isRawAtomicCall(info, n) {
				for _, arg := range n.Args {
					if obj := addrOfFieldArg(info, arg); obj != nil {
						pkg.Facts.AtomicUse[obj] = true
					}
				}
			}
			if isWaitGroupOp(info, n, "Done") {
				s.selfOwned = true
			}
			if callee := calleeOf(info, n); callee != nil {
				s.callees = append(s.callees, callee)
			}
			if sel, ok := unparen(n.Fun).(*ast.SelectorExpr); ok && lockAcquireOps[sel.Sel.Name] {
				if class, ok := lockClassOf(prog, info, sel.X); ok {
					s.classes[class] = true
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && isStopChan(info.TypeOf(n.X)) {
				s.directCancel = true
				s.selfOwned = true
			}
		case *ast.RangeStmt:
			if _, ok := info.TypeOf(n.X).Underlying().(*types.Chan); ok {
				s.directCancel = true
				s.selfOwned = true
			}
		}
		return true
	})
	return s
}

func anyCancelCapable(prog *Program, f *Facts, local map[types.Object]*funcSummary, callees []types.Object) bool {
	for _, c := range callees {
		if f.CancelCapable[c] {
			return true
		}
		if _, samePkg := local[c]; samePkg {
			continue // resolved by the fixpoint
		}
		if ff := prog.FactsFor(c); ff != nil && ff.CancelCapable[c] {
			return true
		}
	}
	return false
}

func mergeClasses(prog *Program, f *Facts, local map[types.Object]*funcSummary, s *funcSummary) []string {
	set := map[string]bool{}
	for c := range s.classes {
		set[c] = true
	}
	for _, callee := range s.callees {
		var classes []string
		if _, samePkg := local[callee]; samePkg {
			classes = f.LockClasses[callee]
		} else if ff := prog.FactsFor(callee); ff != nil {
			classes = ff.LockClasses[callee]
		}
		for _, c := range classes {
			set[c] = true
		}
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// lockClassOf resolves the receiver of a Lock()-style call to an
// annotated mutex field's class, looking through package boundaries (the
// defining package's facts are complete by topological order).
func lockClassOf(prog *Program, info *types.Info, recv ast.Expr) (string, bool) {
	var obj types.Object
	switch x := unparen(recv).(type) {
	case *ast.SelectorExpr:
		if sel := info.Selections[x]; sel != nil {
			obj = sel.Obj()
		} else {
			obj = info.Uses[x.Sel]
		}
	case *ast.Ident:
		obj = info.Uses[x]
	}
	if obj == nil {
		return "", false
	}
	if ff := prog.FactsFor(obj); ff != nil {
		if class, ok := ff.LockFields[obj]; ok {
			return class, true
		}
	}
	return "", false
}

// calleeOf resolves a call expression to the called function object:
// package function, method (concrete or interface), or local function
// identifier. Function-typed fields and literals resolve to nil.
func calleeOf(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj, ok := info.Uses[fun].(*types.Func); ok {
			return obj
		}
	case *ast.SelectorExpr:
		if obj, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return obj
		}
	}
	return nil
}

// isCtxCancelCheck reports whether the call is ctx.Err() or ctx.Done()
// on a context.Context value.
func isCtxCancelCheck(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Err" && sel.Sel.Name != "Done") {
		return false
	}
	return isContextType(info.TypeOf(sel.X))
}

// isWaitGroupOp reports whether the call is a sync.WaitGroup method with
// the given name ("Add", "Done", "Wait").
func isWaitGroupOp(info *types.Info, call *ast.CallExpr, name string) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	t := info.TypeOf(sel.X)
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "WaitGroup"
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "context" && named.Obj().Name() == "Context"
}

// isStopChan reports whether t is a channel of empty structs — the
// conventional stop/done signal type.
func isStopChan(t types.Type) bool {
	if t == nil {
		return false
	}
	ch, ok := t.Underlying().(*types.Chan)
	if !ok {
		return false
	}
	st, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}

// splitGuardsList parses the argument of //sqlcm:guards: field names
// separated by commas (spaces tolerated).
func splitGuardsList(list string) []string {
	var out []string
	for _, part := range strings.Split(list, ",") {
		for _, name := range strings.Fields(part) {
			out = append(out, name)
		}
	}
	return out
}

// isRawAtomicCall reports whether the call is a sync/atomic package-level
// function (the raw atomic.AddInt64(&x, 1) style). Methods on the typed
// atomic.Int64 family also live in package sync/atomic but take the field
// as their receiver, not as an &arg, so they are deliberately excluded:
// the held-set walker must see e.idx.Store(v) as a method call on the
// field for the cowpublish checks.
func isRawAtomicCall(info *types.Info, call *ast.CallExpr) bool {
	fn, ok := calleeOf(info, call).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// addrOfFieldArg resolves an &x.f argument to the struct field object f,
// or nil when the argument is not an address of a field selection.
func addrOfFieldArg(info *types.Info, arg ast.Expr) types.Object {
	un, ok := unparen(arg).(*ast.UnaryExpr)
	if !ok || un.Op != token.AND {
		return nil
	}
	sel, ok := unparen(un.X).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	return fieldObjOf(info, sel)
}

// fieldObjOf resolves a selector expression to the struct field it
// selects, or nil for non-field selections (methods, package members).
func fieldObjOf(info *types.Info, sel *ast.SelectorExpr) types.Object {
	var obj types.Object
	if s := info.Selections[sel]; s != nil {
		obj = s.Obj()
	} else {
		obj = info.Uses[sel.Sel]
	}
	if v, ok := obj.(*types.Var); ok && v.IsField() {
		return v
	}
	return nil
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// directiveIn scans a comment group for //sqlcm:<name> and returns its
// argument text (may be empty).
func directiveIn(cg *ast.CommentGroup, name string) (string, bool) {
	if cg == nil {
		return "", false
	}
	want := "//sqlcm:" + name
	for _, c := range cg.List {
		text := strings.TrimSpace(c.Text)
		if text == want {
			return "", true
		}
		if rest, ok := strings.CutPrefix(text, want+" "); ok {
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}

// fieldDirective scans a struct-field or interface-method declaration's
// doc and trailing comments for //sqlcm:<name>.
func fieldDirective(field *ast.Field, name string) (string, bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if arg, ok := directiveIn(cg, name); ok {
			return arg, true
		}
	}
	return "", false
}

// lockDirective parses a field's //sqlcm:lock <class> [after <class>...]
// annotation. found reports whether the field carries one; bad is
// non-empty when it is malformed.
func lockDirective(field *ast.Field) (class string, after []string, found bool, bad string) {
	var args []string
	lines := 0
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(c.Text)
			if text == "//sqlcm:lock" || strings.HasPrefix(text, "//sqlcm:lock ") {
				lines++
				args = strings.Fields(text)[1:]
			}
		}
	}
	switch {
	case lines == 0:
		return "", nil, false, ""
	case lines > 1:
		return "", nil, true, "more than one //sqlcm:lock line on a single field"
	case len(args) == 0:
		return "", nil, true, "missing class name"
	case len(args) > 1 && (args[1] != "after" || len(args) == 2):
		return "", nil, true, fmt.Sprintf("expected %q followed by class names, got %q", "after", strings.Join(args[1:], " "))
	case len(args) == 1:
		return args[0], nil, true, ""
	}
	return args[0], args[2:], true, ""
}

// hasDirective reports whether the function's doc comment carries the
// //sqlcm:<name> directive.
func hasDirective(fn *ast.FuncDecl, name string) bool {
	_, ok := directiveIn(fn.Doc, name)
	return ok
}

// allowedLines returns the set of source lines covered by a
// "//sqlcm:allow" comment: the comment's own line and the line below it
// (so the directive can sit above a long statement).
func allowedLines(fset *token.FileSet, file *ast.File) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.Contains(c.Text, "sqlcm:allow") {
				continue
			}
			line := fset.Position(c.Pos()).Line
			lines[line] = true
			lines[line+1] = true
		}
	}
	return lines
}
