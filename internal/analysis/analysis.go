// Package analysis implements SQLCM's custom Go source analyzers and a
// small self-contained driver for them, in the spirit of
// golang.org/x/tools/go/analysis but using only the standard library
// (the build environment is offline): go/parser for syntax, go/types
// with the GOROOT source importer for type information, and per-package
// exported facts for cross-package reasoning.
//
// The analyzers are annotation driven. Source carries machine-readable
// directives in comments:
//
//	//sqlcm:hotpath      — this function runs once per event or wire
//	                       message: calls that read the clock are flagged.
//	//sqlcm:lock <class> [after <class>...]
//	                     — on a mutex field: the field belongs to the
//	                       named lock class, which may be acquired while
//	                       holding only the classes it is declared after
//	                       (transitively). Every named mutex field must
//	                       carry one; the declarations form the lock-order
//	                       DAG rendered as docs/lock-order.md.
//	//sqlcm:lock-held <class>
//	                     — callers hold <class> when calling this function.
//	//sqlcm:lock-release <class>
//	                     — this function releases the caller's <class>
//	                       before returning (lock handoff).
//	//sqlcm:guards <field,...>
//	                     — on a //sqlcm:lock mutex field: the listed
//	                       sibling fields may only be read with the
//	                       mutex's class held and only written (or
//	                       escaped, or method-called) with its write
//	                       side held. The special value 'none' declares
//	                       that the mutex guards no plain fields.
//	//sqlcm:guarded-by <class>
//	                     — per-field spelling of the same contract, for
//	                       fields guarded by a lock class declared on
//	                       another struct.
//	//sqlcm:cow <writer-class>
//	                     — this field is a copy-on-write snapshot: it
//	                       must be an atomic.Pointer[T] or atomic.Value,
//	                       Store/Swap/CompareAndSwap need the writer
//	                       class's write side held, and values obtained
//	                       from Load are never mutated in place.
//	//sqlcm:allow <reason>
//	                     — on (or immediately above) an offending line:
//	                       suppress the finding. The reason is
//	                       mandatory; a bare allow is itself a finding.
//
// The directives live with the code they constrain, so the checks keep
// holding as the hot path evolves without a central configuration file.
// Any other //sqlcm: verb is itself a finding (checkDirectives): a typo
// or a verb whose check was deleted must not switch a check off silently.
//
// Every analyzer earns its place by being the only tier that catches
// some seeded bug: scripts/mutate.sh applies the patches under
// testdata/mutations to a copy of the tree and records which tier —
// go vet, these analyzers, go test, -race, the simulator, the chaos
// suite — catches each one first (DESIGN.md §12). A full run ends by
// naming every analyzer that is the sole catcher of no row: the
// candidates for deletion.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// Diagnostic is one finding from a source analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Pass gives an analyzer one type-checked package, plus the surrounding
// program for cross-package fact lookups.
type Pass struct {
	Fset *token.FileSet
	Pkg  *Package
	Prog *Program

	name   string
	report func(Diagnostic)
	sinks  *[]heldSink
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// reportUnlessAllowed records a finding at pos unless the line carries (or
// sits right below) a //sqlcm:allow comment.
func (p *Pass) reportUnlessAllowed(pos token.Pos, format string, args ...any) {
	if !p.allowed(pos) {
		p.Reportf(pos, format, args...)
	}
}

// allowed reports whether pos sits on a line covered by //sqlcm:allow
// (test files included: the syntactic checks cover them).
func (p *Pass) allowed(pos token.Pos) bool {
	if p.Pkg.allow == nil {
		p.Pkg.allow = map[string]map[int]bool{}
		for _, files := range [][]*ast.File{p.Pkg.Files, p.Pkg.TestFiles} {
			for _, file := range files {
				p.Pkg.allow[p.Fset.Position(file.Pos()).Filename] = allowedLines(p.Fset, file)
			}
		}
	}
	at := p.Fset.Position(pos)
	return p.Pkg.allow[at.Filename][at.Line]
}

// watchHeld subscribes the analyzer to the package's held-set walk, which
// RunProgram runs once per package after every analyzer's Run, fanning
// its events out to all subscribers.
func (p *Pass) watchHeld(s heldSink) { *p.sinks = append(*p.sinks, s) }

// FactsFor resolves the facts of the package defining obj (nil outside
// the loaded module).
func (p *Pass) FactsFor(obj types.Object) *Facts { return p.Prog.FactsFor(obj) }

// Analyzer is one source check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// All returns every registered analyzer.
func All() []*Analyzer {
	return []*Analyzer{HotPath, GuardedBy, CowPublish, LockOrder}
}

// RunTree loads, type-checks and analyzes every package under root.
// Findings come back sorted by position.
func RunTree(root string) ([]Diagnostic, error) {
	prog, err := LoadTree(root)
	if err != nil {
		return nil, err
	}
	return RunProgram(prog), nil
}

// RunProgram runs every analyzer over every package of an already-loaded
// program. Soft type-check errors surface as findings of a synthetic
// "typecheck" analyzer: an unresolvable tree must not silently pass with
// analyzers degraded. Malformed directives surface the same way, as
// "directive" findings (checkDirectives).
func RunProgram(prog *Program) []Diagnostic {
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }
	for _, pkg := range prog.Packages {
		for _, err := range pkg.TypeErrors {
			d := Diagnostic{Analyzer: "typecheck", Message: err.Error()}
			if terr, ok := err.(types.Error); ok {
				d.Pos = terr.Fset.Position(terr.Pos)
				d.Message = terr.Msg
			}
			report(d)
		}
		checkDirectives(prog, pkg, report)
		var sinks []heldSink
		for _, a := range All() {
			a.Run(&Pass{
				Fset:   prog.Fset,
				Pkg:    pkg,
				Prog:   prog,
				name:   a.Name,
				report: report,
				sinks:  &sinks,
			})
		}
		walkHeldPackage(prog, pkg, sinks)
	}
	sortDiags(diags)
	// A closure's body is walked where it is declared and again where it
	// is called: the same finding can come out twice.
	return slices.Compact(diags)
}

// directiveVerbs are the //sqlcm: verbs listed in the package doc, the
// only ones any analyzer reads.
var directiveVerbs = map[string]bool{
	"hotpath": true, "lock": true, "lock-held": true, "lock-release": true,
	"guards": true, "guarded-by": true, "cow": true, "allow": true,
}

// checkDirectives reports every comment that starts with //sqlcm: but
// names no listed verb — a typo (//sqlcm:guard) or a verb whose check was
// deleted would otherwise switch a check off silently — and every
// //sqlcm:allow without a reason, since the suppression is reviewed like
// code and a bare allow gives a code review nothing to check. Test files
// are covered too.
func checkDirectives(prog *Program, pkg *Package, report func(Diagnostic)) {
	for _, files := range [][]*ast.File{pkg.Files, pkg.TestFiles} {
		for _, file := range files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, "//sqlcm:")
					if !ok {
						continue
					}
					verb, reason, _ := strings.Cut(rest, " ")
					d := Diagnostic{Pos: prog.Fset.Position(c.Pos()), Analyzer: "directive"}
					switch {
					case !directiveVerbs[verb]:
						d.Message = fmt.Sprintf("unknown directive //sqlcm:%s: the package doc of internal/analysis lists the verbs", verb)
					case verb == "allow" && strings.TrimSpace(reason) == "":
						d.Message = "//sqlcm:allow without a reason: say why the finding is safe to suppress"
					default:
						continue
					}
					report(d)
				}
			}
		}
	}
}

func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
