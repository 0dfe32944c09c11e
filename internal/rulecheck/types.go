package rulecheck

import (
	"fmt"

	"sqlcm/internal/lat"
	"sqlcm/internal/rules"
	"sqlcm/internal/sqlparser"
	"sqlcm/internal/sqltypes"
)

// Type inference over condition expressions, against the monitored-class
// probe schemas (Appendix A) and the declared LAT schemas. The runtime
// comparison semantics are forgiving — sqltypes.Compare orders values of
// different kinds by kind tag instead of failing — which is exactly why a
// kind-mismatched comparison is a defect: `Duration > "abc"` never
// compares numbers, it compares type tags, so the predicate is
// constant-for-kind and almost certainly not what the rule author meant.

// inferredKind is a statically inferred kind; known=false means the
// analysis cannot determine it (dynamic LATRow columns, references to
// LATs defined outside the set, already-reported errors).
type inferredKind struct {
	kind  sqltypes.Kind
	known bool
}

func known(k sqltypes.Kind) inferredKind { return inferredKind{kind: k, known: true} }

var unknownKind = inferredKind{}

// numericKind reports whether a kind participates in numeric comparison
// and arithmetic (the runtime treats BOOL as 0/1).
func numericKind(k sqltypes.Kind) bool {
	return k == sqltypes.KindInt || k == sqltypes.KindFloat || k == sqltypes.KindBool
}

// checkTypes runs type inference over one rule's condition, emitting
// diagnostics for unknown probes, unresolvable classes, and
// kind-mismatched operators.
func (c *checker) checkTypes(r *rules.Rule, scope refScope) {
	if r.Condition == nil {
		return
	}
	t := &typeChecker{c: c, r: r, scope: scope}
	t.infer(r.Condition)
}

// typeChecker carries the per-rule inference state.
type typeChecker struct {
	c     *checker
	r     *rules.Rule
	scope refScope
	// reportedClasses dedupes "class can never bind" findings per class.
	reportedClasses map[string]bool
}

func (t *typeChecker) errorf(pos int, format string, args ...interface{}) {
	t.c.report(Diagnostic{Rule: t.r.Name, Analysis: "type", Severity: Error,
		Pos: pos, Message: fmt.Sprintf(format, args...)})
}

func (t *typeChecker) warnf(pos int, format string, args ...interface{}) {
	t.c.report(Diagnostic{Rule: t.r.Name, Analysis: "type", Severity: Warning,
		Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// infer computes the static kind of an expression, emitting diagnostics
// along the way.
func (t *typeChecker) infer(e sqlparser.Expr) inferredKind {
	switch x := e.(type) {
	case *sqlparser.Literal:
		return known(x.Val.Kind())

	case *sqlparser.Param:
		t.errorf(t.c.pos(t.r, "@"+x.Name), "parameters are not allowed in rule conditions")
		return unknownKind

	case *sqlparser.FuncCall:
		t.errorf(t.c.pos(t.r, x.Name), "function calls are not supported in rule conditions")
		return unknownKind

	case *sqlparser.ColumnRef:
		return t.inferRef(x)

	case *sqlparser.Arith:
		return t.inferArith(x)

	case *sqlparser.Comparison:
		t.checkComparison(x)
		return known(sqltypes.KindBool)

	case *sqlparser.Logic:
		t.checkLogicOperand(x.Left, x.Op.String())
		t.checkLogicOperand(x.Right, x.Op.String())
		return known(sqltypes.KindBool)

	case *sqlparser.Not:
		t.infer(x.Expr)
		return known(sqltypes.KindBool)

	case *sqlparser.Neg:
		in := t.infer(x.Expr)
		if in.known && !numericKind(in.kind) {
			t.errorf(t.c.pos(t.r, x.Expr.String()), "cannot negate a %s value", in.kind)
			return unknownKind
		}
		return in

	case *sqlparser.IsNull:
		t.infer(x.Expr)
		return known(sqltypes.KindBool)

	default:
		t.errorf(-1, "unsupported condition node %T", e)
		return unknownKind
	}
}

// inferRef types a probe-attribute or LAT-column reference, reporting
// what does not resolve.
func (t *typeChecker) inferRef(ref *sqlparser.ColumnRef) inferredKind {
	k, fault := t.scope.resolve(ref.Table != "", ref.Table, ref.Column)
	// Located only when reported: a rule built in code renders its
	// condition to find the reference.
	pos := func() int { return t.c.pos(t.r, refString(ref)) }
	switch fault {
	case refOK:
		return k
	case refUnbound:
		if !t.reportedClasses[ref.Table] {
			if t.reportedClasses == nil {
				t.reportedClasses = make(map[string]bool, 2)
			}
			t.reportedClasses[ref.Table] = true
			t.errorf(pos(), "condition references class %s, which event %s does not bind and the engine cannot enumerate: the rule will never evaluate",
				ref.Table, t.r.Event)
		}
	case refUndeclared:
		sev := Warning
		msg := fmt.Sprintf("reference %s.%s names neither a monitored class nor a declared LAT (a LAT defined after the rule resolves at runtime)", ref.Table, ref.Column)
		if t.c.set.Closed {
			sev = Error
			msg = fmt.Sprintf("reference %s.%s names neither a monitored class nor a LAT declared in this set", ref.Table, ref.Column)
		}
		t.c.report(Diagnostic{Rule: t.r.Name, Analysis: "latref", Severity: sev, Pos: pos(), Message: msg})
	default:
		t.errorf(pos(), "%s", t.scope.failure(fault, ref.Table, ref.Column))
	}
	return unknownKind
}

// inferArith types an arithmetic node, matching sqltypes.Arith: string
// concatenation for +, numeric promotion otherwise, everything else an
// error.
func (t *typeChecker) inferArith(x *sqlparser.Arith) inferredKind {
	l := t.infer(x.Left)
	r := t.infer(x.Right)
	if !l.known || !r.known {
		return unknownKind
	}
	if l.kind == sqltypes.KindNull || r.kind == sqltypes.KindNull {
		t.warnf(t.c.pos(t.r, "NULL"), "arithmetic with NULL is always NULL, so the enclosing comparison is always false")
		return unknownKind
	}
	if x.Op == sqltypes.OpAdd && l.kind == sqltypes.KindString && r.kind == sqltypes.KindString {
		return known(sqltypes.KindString)
	}
	if !numericKind(l.kind) || !numericKind(r.kind) {
		t.errorf(t.c.pos(t.r, x.Op.String()), "cannot apply %s to %s and %s", x.Op, l.kind, r.kind)
		return unknownKind
	}
	if x.Op == sqltypes.OpDiv || l.kind == sqltypes.KindFloat || r.kind == sqltypes.KindFloat {
		return known(sqltypes.KindFloat)
	}
	return known(sqltypes.KindInt)
}

// checkComparison validates operand kinds: numeric compares with numeric,
// otherwise both sides must share a kind. A kind mismatch never fails at
// runtime — sqltypes.Compare orders by kind tag — which makes the
// predicate constant and the rule silently wrong.
func (t *typeChecker) checkComparison(x *sqlparser.Comparison) {
	l := t.infer(x.Left)
	r := t.infer(x.Right)
	if !l.known || !r.known {
		return
	}
	if l.kind == sqltypes.KindNull || r.kind == sqltypes.KindNull {
		t.warnf(t.c.pos(t.r, "NULL"), "comparison with NULL is always false; use IS NULL / IS NOT NULL")
		return
	}
	if numericKind(l.kind) && numericKind(r.kind) {
		return
	}
	if l.kind == r.kind {
		return
	}
	t.errorf(t.c.pos(t.r, x.Op.String()), "comparing %s with %s: the runtime orders mismatched kinds by type tag, so this predicate is constant", l.kind, r.kind)
}

// checkLogicOperand types one AND/OR operand. Operands of statically
// non-numeric kind are never truthy (truthy() returns false for strings
// and times), so the operand is constant false.
func (t *typeChecker) checkLogicOperand(e sqlparser.Expr, op string) {
	k := t.infer(e)
	if k.known && !numericKind(k.kind) && k.kind != sqltypes.KindNull {
		t.errorf(t.c.pos(t.r, e.String()), "%s operand has type %s, which is never true", op, k.kind)
	}
}

// latColumnKind infers the kind of one LAT output column from its spec:
// grouping columns take the kind of their source probe attribute,
// aggregation columns follow the aggregate function.
func latColumnKind(spec *lat.Spec, col string) (inferredKind, bool) {
	for _, g := range spec.GroupBy {
		if g == col || sanitized(g) == col {
			return attrRefKind(g), true
		}
	}
	for _, a := range spec.Aggs {
		if a.Name != col {
			continue
		}
		switch a.Func {
		case lat.Count:
			return known(sqltypes.KindInt), true
		case lat.Avg, lat.Stdev:
			return known(sqltypes.KindFloat), true
		case lat.Sum:
			src := attrRefKind(a.Attr)
			if src.known && src.kind == sqltypes.KindInt {
				return known(sqltypes.KindInt), true
			}
			return known(sqltypes.KindFloat), true
		default: // Min, Max, First, Last carry the source kind.
			return attrRefKind(a.Attr), true
		}
	}
	return unknownKind, false
}

// attrRefKind resolves a LAT source-attribute reference ("Duration",
// "Blocker.Query_Text") to its probe kind.
func attrRefKind(ref string) inferredKind {
	k, _ := refScope{}.resolve(splitRef(ref))
	return k
}

func sanitized(ref string) string {
	out := []byte(ref)
	for i := range out {
		if out[i] == '.' {
			out[i] = '_'
		}
	}
	return string(out)
}

func columnsOf(spec *lat.Spec) string {
	cols := spec.Columns()
	out := ""
	for i, c := range cols {
		if i > 0 {
			out += ", "
		}
		out += c
	}
	return out
}
