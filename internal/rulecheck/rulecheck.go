// Package rulecheck statically analyses whole ECA rule sets before they
// run. The paper's rules (§5) have real static structure — conditions are
// arithmetic/comparison/boolean expressions over typed probe attributes
// (Appendix A), actions reference LAT schemas, and the engine must bound
// recursive triggering — so a large class of defects is decidable at
// CreateRule time instead of surfacing at dispatch time (or never, for
// dead rules).
//
// Analyses (each diagnostic carries the analysis id):
//
//	type    — type inference for condition expressions against the
//	          monitored-class probe schemas: unknown probes, probes of
//	          classes the event neither binds nor the engine can
//	          enumerate, kind-mismatched comparisons and arithmetic
//	          (Duration > "abc").
//	sat     — interval-based satisfiability: dead rules whose condition
//	          can never be true (Duration > 10 AND Duration < 5) and
//	          conditions that are always true.
//	latref  — LAT reference validation: Insert/Reset/Persist actions and
//	          condition references checked against declared LAT
//	          grouping/aggregation schemas, including the sanitized-
//	          column collision rules of the Persist action.
//	trigger — the rule-trigger graph: actions that raise events (timers,
//	          LAT-eviction objects) linked to the rules subscribed to
//	          them, with cycle detection and a static nesting-depth
//	          bound mirroring the paper's recursive-triggering limit.
//	shadow  — duplicate and shadowed rules on the same event.
//	action  — non-LAT action defects: Cancel on classes the event does
//	          not bind, invalid timer parameters, unresolvable
//	          notification placeholders, empty action lists.
//	syntax  — condition parse failures (positioned by the parser).
//	latdef  — malformed LAT specifications (batch mode).
//
// The engine integration (internal/core) runs Check over the live rule
// set on demand and, in Strict mode, once per registration over what the
// registration adds, against the live set; cmd/sqlcm-vet runs it in batch
// over declarative rule-set files.
package rulecheck

import (
	"fmt"
	"sort"
	"strings"

	"sqlcm/internal/lat"
	"sqlcm/internal/monitor"
	"sqlcm/internal/rules"
	"sqlcm/internal/sqlparser"
)

// Severity grades a diagnostic.
type Severity uint8

// Severities. Strict mode rejects rules with Error diagnostics; warnings
// are advisory in every mode.
const (
	Warning Severity = iota
	Error
)

// String returns "warning" or "error".
func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// Mode selects whether the engine integration analyses a rule at
// registration time.
type Mode uint8

// Modes. Warn registers rules unanalysed (the live set's findings are
// computed when asked for); Strict rejects a rule that an Error
// diagnostic names.
const (
	Warn Mode = iota
	Strict
)

// Diagnostic is one finding.
type Diagnostic struct {
	// Rule names the offending rule ("" for set-level findings).
	Rule string
	// Analysis identifies the analysis that produced the finding
	// ("type", "sat", "latref", "trigger", "shadow", "action",
	// "syntax", "latdef").
	Analysis string
	Severity Severity
	// Pos is the byte offset of the finding in the rule's condition
	// source (-1 when the finding has no position: action-level and
	// set-level findings, or rules registered without source text).
	Pos     int
	Message string
}

// String renders the diagnostic in a vet-style line.
func (d Diagnostic) String() string {
	var b strings.Builder
	if d.Rule != "" {
		fmt.Fprintf(&b, "rule %q: ", d.Rule)
	}
	fmt.Fprintf(&b, "[%s] %s: %s", d.Analysis, d.Severity, d.Message)
	if d.Pos >= 0 {
		fmt.Fprintf(&b, " (offset %d)", d.Pos)
	}
	return b.String()
}

// DefaultMaxTriggerDepth bounds synchronous trigger chains (the paper's
// recursive-triggering limit): an action that evicts a LAT row dispatches
// LATRow.Evicted re-entrantly in the same thread, so deep chains grow the
// query thread's stack.
const DefaultMaxTriggerDepth = 8

// Set is a whole rule set with the LAT schemas its rules reference.
type Set struct {
	LATs  []lat.Spec
	Rules []*rules.Rule
	// Closed marks a complete universe (batch files): references to
	// undeclared LATs become errors instead of "may be defined later"
	// warnings.
	Closed bool
	// MaxTriggerDepth overrides DefaultMaxTriggerDepth (0 = default).
	MaxTriggerDepth int
}

// checker carries one Check invocation.
type checker struct {
	set *Set // the rules and LATs under analysis
	// rules is the live set's rules, then set's: the trigger graph and
	// shadowing span them, findings name only set's (rules[first:]).
	rules []*rules.Rule
	first int
	lats  map[string]*lat.Spec
	diags []Diagnostic
}

// Check analyses the rule set add against the installed set live and
// returns add's findings, most severe first within each rule, rules in
// add's order. The per-rule analyses and LAT validation run over add
// only; the trigger graph spans both sets, and each added rule is checked
// for shadowing against the earlier rules on its event. live may be nil,
// which makes add the whole set; add's Closed and MaxTriggerDepth govern.
func Check(live, add *Set) []Diagnostic {
	if live == nil {
		live = &Set{}
	}
	c := &checker{set: add, first: len(live.Rules),
		rules: append(append(make([]*rules.Rule, 0, len(live.Rules)+len(add.Rules)), live.Rules...), add.Rules...),
		lats:  make(map[string]*lat.Spec, len(live.LATs)+len(add.LATs))}
	for i := range live.LATs {
		c.lats[live.LATs[i].Name] = &live.LATs[i]
	}
	for i := range add.LATs {
		spec := &add.LATs[i]
		if _, dup := c.lats[spec.Name]; dup {
			c.report(Diagnostic{Analysis: "latdef", Severity: Error, Pos: -1,
				Message: fmt.Sprintf("LAT %q declared twice", spec.Name)})
			continue
		}
		c.lats[spec.Name] = spec
		// lat.New runs the spec's own consistency validation without
		// registering anything.
		if _, err := lat.New(*spec); err != nil {
			c.report(Diagnostic{Analysis: "latdef", Severity: Error, Pos: -1,
				Message: err.Error()})
		}
	}
	seen := make(map[string]bool, len(c.rules))
	for _, r := range live.Rules {
		seen[r.Name] = true
	}
	for i, r := range add.Rules {
		if r.Name == "" {
			c.report(Diagnostic{Analysis: "syntax", Severity: Error, Pos: -1,
				Message: fmt.Sprintf("rule #%d has no name", i+1)})
		} else if seen[r.Name] {
			c.report(Diagnostic{Rule: r.Name, Analysis: "shadow", Severity: Error, Pos: -1,
				Message: fmt.Sprintf("rule %q declared twice", r.Name)})
		}
		seen[r.Name] = true
		if _, ok := monitor.EventIndex(r.Event); !ok {
			c.report(Diagnostic{Rule: r.Name, Analysis: "syntax", Severity: Error, Pos: -1,
				Message: fmt.Sprintf("unknown event %q", r.Event.String())})
			continue
		}
		scope := c.scopeOf(r)
		c.checkTypes(r, scope)
		c.checkSat(r, scope)
		c.checkActions(r, scope)
	}
	c.checkTriggers()
	c.checkShadow()
	c.sortByRule()
	return c.diags
}

// HasErrors reports whether any diagnostic is Error-severity.
func HasErrors(diags []Diagnostic) bool {
	for _, d := range diags {
		if d.Severity == Error {
			return true
		}
	}
	return false
}

// report records one diagnostic.
func (c *checker) report(d Diagnostic) { c.diags = append(c.diags, d) }

// sortByRule orders findings by rule position in the set (set-level
// findings keep their emit position relative to rules), then severity
// (errors first). The sort is stable so same-severity findings keep
// analysis order.
func (c *checker) sortByRule() {
	order := make(map[string]int, len(c.set.Rules))
	for i, r := range c.set.Rules {
		order[r.Name] = i
	}
	sort.SliceStable(c.diags, func(i, j int) bool {
		a, b := c.diags[i], c.diags[j]
		ai, aok := order[a.Rule]
		bi, bok := order[b.Rule]
		if aok && bok && ai != bi {
			return ai < bi
		}
		if aok != bok {
			return !aok // set-level findings first
		}
		return a.Severity > b.Severity
	})
}

// pos locates a sub-expression's text inside the rule's condition source,
// for diagnostics that point at a reference or literal. A rule built in
// code has no source text; its parsed condition's canonical rendering
// stands in, so positions still point somewhere meaningful. Returns -1
// when the text is not found.
func (c *checker) pos(r *rules.Rule, sub string) int {
	src := r.Source
	if src == "" {
		src = r.CanonicalCondition()
	}
	if src == "" || sub == "" {
		return -1
	}
	return strings.Index(src, sub)
}

// refFault says why a reference does not resolve.
type refFault uint8

const (
	refOK         refFault = iota
	refNoAttr              // the class has no such probe attribute
	refUnbound             // the rule can bind no object of the class
	refNoColumn            // the LAT has no such column
	refUndeclared          // the qualifier names neither a class nor a LAT
)

// refScope is what references resolve against: a rule's event, the
// classes the rule can bind and the declared LATs. The zero scope
// resolves a LAT's source attributes, which no one event binds.
type refScope struct {
	ev    monitor.Event
	bound map[string]bool
	lats  map[string]*lat.Spec
}

// scopeOf returns a rule's scope. The rule can bind the classes its event
// binds, plus enumerable classes its condition references (the engine's
// expand step iterates live objects of those, §5.2).
func (c *checker) scopeOf(r *rules.Rule) refScope {
	bound := make(map[string]bool, 4)
	for _, cl := range monitor.BoundClasses(r.Event) {
		bound[cl] = true
	}
	sqlparser.WalkExpr(r.Condition, func(e sqlparser.Expr) {
		if ref, ok := e.(*sqlparser.ColumnRef); ok && monitor.EnumerableClass(ref.Table) {
			bound[ref.Table] = true
		}
	})
	return refScope{ev: r.Event, bound: bound, lats: c.lats}
}

// resolve is the one reference case split: a bare name (qual "", not
// qualified) resolves against the event's class, "Class.Attr" against a class the rule can
// bind, "LAT.Col" against a declared LAT's columns. It returns the
// reference's static kind, known also for a class the rule cannot bind,
// and what failed. A LATRow attribute other than "LAT" is a column of the
// source LAT, known only at runtime: it resolves with an unknown kind. In
// the zero scope a bare name is looked up in every class schema (the
// Appendix A schemas keep shared names such as ID, User and Duration
// kind-consistent, so the first match is authoritative) and every class
// qualifier is unbound: only the kind counts there.
func (s refScope) resolve(qualified bool, qual, attr string) (inferredKind, refFault) {
	if !qualified {
		if s.ev.Class != "" {
			return classAttr(s.ev.Class, attr)
		}
		for _, class := range []string{
			monitor.ClassQuery, monitor.ClassTransaction, monitor.ClassTimer, monitor.ClassMonitor,
		} {
			if k, fault := classAttr(class, attr); fault == refOK {
				return k, refOK
			}
		}
		return unknownKind, refNoAttr
	}
	if _, isClass := monitor.ClassAttributes(qual); isClass {
		k, fault := classAttr(qual, attr)
		if !s.bound[qual] {
			fault = refUnbound
		}
		return k, fault
	}
	if spec, ok := s.lats[qual]; ok {
		if k, ok := latColumnKind(spec, attr); ok {
			return k, refOK
		}
		return unknownKind, refNoColumn
	}
	return unknownKind, refUndeclared
}

// splitRef splits a reference's source spelling ("Attr", "Qual.Attr")
// into resolve's arguments.
func splitRef(ref string) (qualified bool, qual, attr string) {
	qual, attr, qualified = strings.Cut(ref, ".")
	if !qualified {
		return false, "", ref
	}
	return true, qual, attr
}

// classAttr resolves one probe attribute of a class.
func classAttr(class, attr string) (inferredKind, refFault) {
	if class == monitor.ClassLATRow && attr != "LAT" {
		return unknownKind, refOK
	}
	if k, ok := monitor.AttrKind(class, attr); ok {
		return known(k), refOK
	}
	return unknownKind, refNoAttr
}

// failure words a fault the way the analyses share.
func (s refScope) failure(fault refFault, qual, attr string) string {
	switch fault {
	case refNoAttr:
		if qual == "" {
			return fmt.Sprintf("%s has no probe attribute %q (event %s)", s.ev.Class, attr, s.ev)
		}
		return fmt.Sprintf("%s has no probe attribute %q", qual, attr)
	case refUnbound:
		return fmt.Sprintf("event %s does not bind a %s object", s.ev, qual)
	case refNoColumn:
		return fmt.Sprintf("LAT %s has no column %q (columns: %s)", qual, attr, columnsOf(s.lats[qual]))
	}
	return qual + " names neither a monitored class nor a declared LAT"
}

// refString renders a column reference in its source spelling.
func refString(ref *sqlparser.ColumnRef) string {
	if ref.Table == "" {
		return ref.Column
	}
	return ref.Table + "." + ref.Column
}

// canonicalVar names a reference for the satisfiability analysis:
// unqualified references resolve against the event's primary object, so
// "Duration" and "Query.Duration" constrain the same variable on a
// Query.* event.
func canonicalVar(eventClass string, ref *sqlparser.ColumnRef) string {
	if ref.Table == "" {
		return eventClass + "." + ref.Column
	}
	return refString(ref)
}
