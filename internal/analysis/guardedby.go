package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// GuardedBy checks the data-protection contract declared next to each
// //sqlcm:lock mutex: the fields a lock guards — named by a
// //sqlcm:guards <field,...> list on the mutex field, or by a per-field
// //sqlcm:guarded-by <class> directive — may only be touched while that
// class is held. Reads require the class in any mode; writes, address
// escapes, and method calls on the field require the write side.
//
// The held-set comes from the shared flow-approximate walk (heldwalk.go)
// the lock-hierarchy analyzers also use: branches merge conservatively, so a class
// held on only some paths still counts as held (the analyzer stays
// silent rather than guessing), and a `defer mu.Unlock()` keeps the
// class held to the end of the function. Accesses through locals
// freshly allocated in the same function are exempt — the value is not
// published yet. Everything else the walk cannot see takes a
// //sqlcm:allow comment with a reason.
var GuardedBy = &Analyzer{
	Name: "guardedby",
	Doc:  "fields named by //sqlcm:guards or //sqlcm:guarded-by may only be accessed while their lock class is held",
	Run:  runGuardedBy,
}

func runGuardedBy(p *Pass) {
	validateGuardAnnotations(p)
	validateAllowReasons(p)
	p.watchHeld(heldSink{use: func(u fieldUse) {
		ff := p.FactsFor(u.obj)
		if ff == nil {
			return
		}
		class, ok := ff.GuardedBy[u.obj]
		if !ok || u.fresh || p.allowed(u.pos) {
			return
		}
		held, write := heldFor(u.held, class)
		switch {
		case !held:
			p.Reportf(u.pos,
				"%s of %s requires %s (held: %s); take the lock, or annotate //sqlcm:allow <reason> for patterns the walk cannot see",
				u.kind, fieldRef(u.obj), class, heldList(u.held))
		case !write && u.kind != accRead:
			p.Reportf(u.pos,
				"%s of %s requires the write side of %s, which is only read-held here",
				u.kind, fieldRef(u.obj), class)
		}
	}})
}

// validateAllowReasons reports //sqlcm:allow comments with no trailing
// reason. The suppression is reviewed like code; a bare allow gives the
// reviewer nothing to review.
func validateAllowReasons(p *Pass) {
	for _, file := range p.Pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*"))
				rest, ok := strings.CutPrefix(text, "sqlcm:allow")
				if !ok {
					continue
				}
				if strings.TrimSpace(strings.TrimSuffix(rest, "*/")) == "" {
					p.Reportf(c.Pos(), "//sqlcm:allow without a reason: say why the finding is safe to suppress")
				}
			}
		}
	}
}

// validateGuardAnnotations checks the annotations themselves: a guards
// list belongs on a //sqlcm:lock field and may only name siblings; a
// guarded-by or cow directive must name a lock class that exists
// somewhere in the program; a field must not be claimed by two classes.
func validateGuardAnnotations(p *Pass) {
	classes := p.Prog.lockOrder().classes
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				validateStructGuards(p, classes, st)
			}
		}
	}
}

func validateStructGuards(p *Pass, classes map[string]*lockClass, st *ast.StructType) {
	siblings := map[string]bool{}
	for _, field := range st.Fields.List {
		for _, name := range field.Names {
			siblings[name.Name] = true
		}
	}
	// claimed tracks which class first claimed each field name, for the
	// two-spellings-disagree diagnostic.
	claimed := map[string]string{}
	claim := func(fname, class string, at token.Pos) {
		if prev, ok := claimed[fname]; ok && prev != class {
			p.Reportf(at, "field %s is claimed by two lock classes: %s and %s", fname, prev, class)
			return
		}
		claimed[fname] = class
	}
	for _, field := range st.Fields.List {
		lockClass, _, isLock, _ := lockDirective(field)
		if list, ok := fieldDirective(field, "guards"); ok {
			if !isLock {
				p.Reportf(field.Pos(), "//sqlcm:guards on a field without //sqlcm:lock: the guards list belongs on the mutex it describes")
			} else {
				names := splitGuardsList(list)
				if len(names) == 0 {
					p.Reportf(field.Pos(), "//sqlcm:guards with an empty field list: name the guarded siblings, or 'none' if the mutex guards no plain fields")
				}
				for _, fname := range names {
					if fname == "none" {
						if len(names) != 1 {
							p.Reportf(field.Pos(), "//sqlcm:guards mixes 'none' with field names")
						}
						continue
					}
					if !siblings[fname] {
						p.Reportf(field.Pos(), "//sqlcm:guards names %s, which is not a field of this struct", fname)
						continue
					}
					claim(fname, lockClass, field.Pos())
				}
			}
		}
		if class, ok := fieldDirective(field, "guarded-by"); ok {
			if class == "" {
				p.Reportf(field.Pos(), "//sqlcm:guarded-by needs a lock class argument")
			} else if classes[class] == nil {
				p.Reportf(field.Pos(), "//sqlcm:guarded-by names unknown lock class %s (no //sqlcm:lock field declares it)", class)
			} else {
				for _, name := range field.Names {
					claim(name.Name, class, field.Pos())
				}
			}
		}
		if class, ok := fieldDirective(field, "cow"); ok {
			if class == "" {
				p.Reportf(field.Pos(), "//sqlcm:cow needs a writer lock class argument")
			} else if classes[class] == nil {
				p.Reportf(field.Pos(), "//sqlcm:cow names unknown lock class %s (no //sqlcm:lock field declares it)", class)
			}
		}
	}
}
