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
// set on demand and, in Strict mode, once per registration over the live
// set plus the candidate; cmd/sqlcm-vet runs it in batch over declarative
// rule-set files.
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
	set   *Set
	lats  map[string]*lat.Spec
	diags []Diagnostic
}

// Check analyses the rule set and returns its findings, most severe
// first within each rule, rules in set order.
func Check(set *Set) []Diagnostic {
	c := &checker{set: set, lats: make(map[string]*lat.Spec, len(set.LATs))}
	for i := range set.LATs {
		spec := &set.LATs[i]
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
	seen := make(map[string]bool, len(set.Rules))
	for i, r := range set.Rules {
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
		c.checkTypes(r)
		c.checkSat(r)
		c.checkActions(r)
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
	if src == "" && r.Condition != nil {
		src = r.Condition.String()
	}
	if src == "" || sub == "" {
		return -1
	}
	return strings.Index(src, sub)
}

// resolvableClasses returns the classes a rule's references can bind: the
// classes its event binds, plus enumerable classes referenced by the
// condition (the engine's expand step iterates live objects of those,
// §5.2).
func (c *checker) resolvableClasses(r *rules.Rule) map[string]bool {
	out := make(map[string]bool, 4)
	for _, cl := range monitor.BoundClasses(r.Event) {
		out[cl] = true
	}
	sqlparser.WalkExpr(r.Condition, func(e sqlparser.Expr) {
		ref, ok := e.(*sqlparser.ColumnRef)
		if !ok || ref.Table == "" {
			return
		}
		if monitor.EnumerableClass(ref.Table) {
			out[ref.Table] = true
		}
	})
	return out
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
