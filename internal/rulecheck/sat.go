package rulecheck

import (
	"errors"
	"math"

	"sqlcm/internal/expr"
	"sqlcm/internal/rules"
	"sqlcm/internal/sqlparser"
	"sqlcm/internal/sqltypes"
)

// Interval-based satisfiability over rule conditions. The analysis is an
// over-approximation aligned with the runtime's truthiness semantics: a
// condition "holds" only when it evaluates non-NULL and truthy; NULL
// attributes, missing LAT rows and evaluation errors all make the rule
// not fire. sat(e, want) returns a set of abstract worlds — per-variable
// constraint conjunctions — covering every concrete state in which e has
// truth value `want`. If the set is empty, that truth value is
// unreachable:
//
//	sat(cond, true) empty  → the rule can never fire (dead rule, Error)
//	sat(cond, false) empty → the condition is always true (Warning)
//
// Soundness notes, matching the rule-condition semantics of
// internal/rules/compile.go and sqltypes.Compare:
//
//   - Negation is NOT classical: NOT(x > 5) is true when x is NULL, so a
//     negated comparison contributes "inverted interval OR null", never
//     just the inverted interval. Duration > 10 AND Duration < 5 is dead;
//     NOT(Duration > 5) AND NOT(Duration <= 5) is satisfied by NULL.
//   - Compare orders mismatched kinds by kind tag, so a comparison whose
//     operand kinds differ statically is constant-for-kind (modulo NULL);
//     the analysis folds it instead of constraining the variable.
//   - Interval constraints attach only when the variable's static kind is
//     numeric and the bound is a numeric literal; INT-kind variables get
//     integer bound tightening (x > 10 ⇒ x ≥ 11).
//
// World count is capped; past the cap the analysis returns TOP (an
// unconstrained world) and claims nothing.

// maxWorlds caps the disjunct fan-out of sat(); beyond it the analysis
// degrades to TOP rather than claim anything.
const maxWorlds = 128

// varConstraint abstracts one variable's possible values: a value-set
// (numeric interval minus exclusions, or a string equality/exclusion
// set) plus whether NULL (or a missing LAT row) is allowed.
type varConstraint struct {
	kind sqltypes.Kind // KindInt/KindFloat/KindBool (numeric) or KindString

	// Numeric interval [lo, hi]; loOpen/hiOpen mark strict bounds.
	lo, hi         float64
	loOpen, hiOpen bool
	// excl holds point exclusions (x != c).
	excl []float64

	// String constraints: eq non-nil means the value must be one of eq;
	// strExcl lists forbidden values.
	eq      map[string]bool
	strExcl map[string]bool

	// valueSetEmpty marks a constraint whose value set is empty by
	// construction (IS NULL): only NULL satisfies it.
	valueSetEmpty bool

	// allowNull: the variable may be NULL / missing and still satisfy
	// the constraint.
	allowNull bool
}

func unconstrainedNum(kind sqltypes.Kind) *varConstraint {
	return &varConstraint{kind: kind, lo: math.Inf(-1), hi: math.Inf(1), allowNull: true}
}

// world is a conjunction of per-variable constraints.
type world map[string]*varConstraint

// worldList is a disjunction of worlds. nil/empty = unsatisfiable; the
// single unconstrained world is TOP.
type worldList []world

var top = worldList{world{}}

// consistent reports whether the constraint admits at least one value.
func (vc *varConstraint) consistent() bool {
	if vc.allowNull {
		return true
	}
	if vc.valueSetEmpty {
		return false
	}
	if vc.kind == sqltypes.KindString {
		if vc.eq != nil {
			for v := range vc.eq {
				if vc.strExcl == nil || !vc.strExcl[v] {
					return true
				}
			}
			return false
		}
		return true // co-finite string set is never empty
	}
	// Numeric interval.
	lo, hi := vc.lo, vc.hi
	loOpen, hiOpen := vc.loOpen, vc.hiOpen
	if vc.kind == sqltypes.KindInt {
		// Tighten to integral bounds.
		lo, hi, loOpen, hiOpen = tightenInt(lo, hi, loOpen, hiOpen)
	}
	if lo > hi {
		return false
	}
	if lo == hi {
		if loOpen || hiOpen {
			return false
		}
		for _, e := range vc.excl {
			if e == lo {
				return false
			}
		}
		return true
	}
	if vc.kind == sqltypes.KindInt && !math.IsInf(lo, -1) && !math.IsInf(hi, 1) {
		// Small integer ranges: check the exclusions don't cover it.
		n := hi - lo + 1
		if n <= float64(len(vc.excl)) {
			covered := 0
			for x := lo; x <= hi; x++ {
				for _, e := range vc.excl {
					if e == x {
						covered++
						break
					}
				}
			}
			if float64(covered) >= n {
				return false
			}
		}
	}
	return true
}

// tightenInt converts open/fractional bounds to closed integral bounds.
func tightenInt(lo, hi float64, loOpen, hiOpen bool) (float64, float64, bool, bool) {
	if !math.IsInf(lo, -1) {
		if loOpen {
			lo = math.Floor(lo) + 1
		} else {
			lo = math.Ceil(lo)
		}
	}
	if !math.IsInf(hi, 1) {
		if hiOpen {
			hi = math.Ceil(hi) - 1
		} else {
			hi = math.Floor(hi)
		}
	}
	return lo, hi, false, false
}

// merge conjoins two constraints on the same variable. Returns nil when
// the conjunction is unsatisfiable.
func (vc *varConstraint) merge(o *varConstraint) *varConstraint {
	out := &varConstraint{
		kind:          vc.kind,
		lo:            math.Max(vc.lo, o.lo),
		hi:            math.Min(vc.hi, o.hi),
		valueSetEmpty: vc.valueSetEmpty || o.valueSetEmpty,
		allowNull:     vc.allowNull && o.allowNull,
	}
	switch {
	case out.lo == vc.lo && out.lo == o.lo:
		out.loOpen = vc.loOpen || o.loOpen
	case out.lo == vc.lo:
		out.loOpen = vc.loOpen
	default:
		out.loOpen = o.loOpen
	}
	switch {
	case out.hi == vc.hi && out.hi == o.hi:
		out.hiOpen = vc.hiOpen || o.hiOpen
	case out.hi == vc.hi:
		out.hiOpen = vc.hiOpen
	default:
		out.hiOpen = o.hiOpen
	}
	out.excl = append(append([]float64(nil), vc.excl...), o.excl...)
	switch {
	case vc.eq != nil && o.eq != nil:
		out.eq = map[string]bool{}
		for v := range vc.eq {
			if o.eq[v] {
				out.eq[v] = true
			}
		}
		if len(out.eq) == 0 {
			out.valueSetEmpty = true
		}
	case vc.eq != nil:
		out.eq = vc.eq
	case o.eq != nil:
		out.eq = o.eq
	}
	if vc.strExcl != nil || o.strExcl != nil {
		out.strExcl = map[string]bool{}
		for v := range vc.strExcl {
			out.strExcl[v] = true
		}
		for v := range o.strExcl {
			out.strExcl[v] = true
		}
	}
	if !out.consistent() {
		return nil
	}
	return out
}

// mergeWorlds conjoins two worlds; nil means contradiction.
func mergeWorlds(a, b world) world {
	out := make(world, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		if prev, ok := out[k]; ok {
			m := prev.merge(v)
			if m == nil {
				return nil
			}
			out[k] = m
		} else {
			out[k] = v
		}
	}
	return out
}

// cross conjoins two world lists (AND), dropping contradictions.
func cross(a, b worldList) worldList {
	if len(a)*len(b) > maxWorlds {
		return top
	}
	var out worldList
	for _, wa := range a {
		for _, wb := range b {
			if w := mergeWorlds(wa, wb); w != nil {
				out = append(out, w)
			}
		}
	}
	return out
}

// union disjoins two world lists (OR).
func union(a, b worldList) worldList {
	out := append(append(worldList{}, a...), b...)
	if len(out) > maxWorlds {
		return top
	}
	return out
}

// satChecker runs the analysis for one rule.
type satChecker struct {
	r     *rules.Rule
	scope refScope
}

// checkSat analyses one rule's condition for dead and always-true cases.
func (c *checker) checkSat(r *rules.Rule, scope refScope) {
	if r.Condition == nil {
		return
	}
	s := &satChecker{r: r, scope: scope}
	if len(s.sat(r.Condition, true)) == 0 {
		c.report(Diagnostic{Rule: r.Name, Analysis: "sat", Severity: Error, Pos: 0,
			Message: "condition is unsatisfiable: the rule can never fire"})
		return
	}
	if len(s.sat(r.Condition, false)) == 0 {
		c.report(Diagnostic{Rule: r.Name, Analysis: "sat", Severity: Warning, Pos: 0,
			Message: "condition is always true: the rule fires on every event (drop the condition if intended)"})
	}
}

// sat returns the worlds in which e has truth value want ("truthy" per
// the runtime: non-NULL, non-missing and truthy). The result
// over-approximates; an empty list is a proof of unreachability.
func (s *satChecker) sat(e sqlparser.Expr, want bool) worldList {
	// Reference-free: the truth value is fixed (NULL, strings and times are
	// never truthy).
	if v, ok := foldConst(e); ok {
		if expr.Truthy(v) == want {
			return top
		}
		return nil
	}
	switch x := e.(type) {
	case *sqlparser.Logic:
		and := x.Op == sqlparser.LogicAnd
		if and == want {
			// AND-true / OR-false: both operands must have value `want`.
			return cross(s.sat(x.Left, want), s.sat(x.Right, want))
		}
		// AND-false / OR-true: either operand suffices.
		return union(s.sat(x.Left, want), s.sat(x.Right, want))

	case *sqlparser.Not:
		// NOT e is truthy ⟺ e is not truthy (NULL flips to true).
		return s.sat(x.Expr, !want)

	case *sqlparser.Comparison:
		return s.satComparison(x, want)

	case *sqlparser.IsNull:
		return s.satIsNull(x, want)

	case *sqlparser.ColumnRef:
		// Bare reference as a boolean operand.
		return s.satRefTruthy(x, want)

	default:
		// Arithmetic or unsupported shapes as boolean operands: claim
		// nothing.
		return top
	}
}

// foldConst evaluates a reference-free subtree to its constant value, with
// the compiler and the operand filter the rule engine evaluates conditions
// with.
func foldConst(e sqlparser.Expr) (sqltypes.Value, bool) {
	ev, err := expr.Compile(e, constLeaves{})
	if err != nil {
		return sqltypes.Null, false
	}
	v, err := ev.Eval(expr.Env{})
	return v, err == nil
}

// constLeaves refuses every reference, so only constants compile.
type constLeaves struct{}

var errNotConst = errors.New("rulecheck: not a constant")

func (constLeaves) Column(*sqlparser.ColumnRef) (expr.Evaluator, error) { return nil, errNotConst }
func (constLeaves) Param(*sqlparser.Param) (expr.Evaluator, error)      { return nil, errNotConst }
func (constLeaves) Func(*sqlparser.FuncCall) (expr.Evaluator, error)    { return nil, errNotConst }
func (constLeaves) Operand(p expr.Predicate) expr.Predicate             { return expr.Filter(p) }

// refKind is a reference's static kind (checkTypes reports what does not
// resolve).
func (s *satChecker) refKind(ref *sqlparser.ColumnRef) inferredKind {
	k, _ := s.scope.resolve(ref.Table != "", ref.Table, ref.Column)
	return k
}

// satRefTruthy handles a bare reference used as a boolean: truthy ⟺
// non-NULL and ≠ 0 for numeric kinds; other kinds are never truthy.
func (s *satChecker) satRefTruthy(ref *sqlparser.ColumnRef, want bool) worldList {
	k := s.refKind(ref)
	if !k.known {
		return top
	}
	v := canonicalVar(s.r.Event.Class, ref)
	if !numericKind(k.kind) {
		if want {
			return nil // strings/times are never truthy
		}
		return top
	}
	if want {
		vc := unconstrainedNum(k.kind)
		vc.allowNull = false
		vc.excl = []float64{0}
		return worldList{world{v: vc}}
	}
	// Not truthy: NULL, or exactly zero.
	null := unconstrainedNum(k.kind)
	null.valueSetEmpty = true
	zero := unconstrainedNum(k.kind)
	zero.allowNull = false
	zero.lo, zero.hi = 0, 0
	return worldList{world{v: null}, world{v: zero}}
}

// satIsNull handles expr IS [NOT] NULL.
func (s *satChecker) satIsNull(x *sqlparser.IsNull, want bool) worldList {
	ref, ok := x.Expr.(*sqlparser.ColumnRef)
	if !ok {
		return top
	}
	k := s.refKind(ref)
	kind := sqltypes.KindFloat
	if k.known {
		kind = k.kind
	}
	v := canonicalVar(s.r.Event.Class, ref)
	wantNull := want != x.Negate // IS NULL true ⟺ null; IS NOT NULL flips
	vc := unconstrainedNum(kind)
	if kind == sqltypes.KindString {
		vc = &varConstraint{kind: kind, allowNull: true}
	}
	if wantNull {
		vc.valueSetEmpty = true
	} else {
		vc.allowNull = false
	}
	return worldList{world{v: vc}}
}

// satComparison handles ref-vs-literal and same-ref comparisons; anything
// else claims nothing.
func (s *satChecker) satComparison(x *sqlparser.Comparison, want bool) worldList {
	// Constant fold both sides first (sat has dealt with both constant).
	lv, lConst := foldConst(x.Left)
	rv, rConst := foldConst(x.Right)

	lRef, lIsRef := x.Left.(*sqlparser.ColumnRef)
	rRef, rIsRef := x.Right.(*sqlparser.ColumnRef)

	// Same variable on both sides: Compare(v, v) == 0 when non-NULL.
	if lIsRef && rIsRef {
		lv := canonicalVar(s.r.Event.Class, lRef)
		rv := canonicalVar(s.r.Event.Class, rRef)
		if lv == rv {
			holds := expr.CmpHolds(x.Op, 0) // x = x, x <= x, x >= x true; <, >, != false
			k := s.refKind(lRef)
			kind := sqltypes.KindFloat
			if k.known {
				kind = k.kind
			}
			vc := unconstrainedNum(kind)
			if holds == want {
				if want {
					vc.allowNull = false // needs a non-NULL binding
				}
				// want false via "holds false" needs nothing beyond TOP.
				return worldList{world{lv: vc}}
			}
			if want {
				return nil // x < x can never be truthy
			}
			// want false for an always-holding op: only NULL does it.
			vc.valueSetEmpty = true
			return worldList{world{lv: vc}}
		}
		return top // two distinct variables: claim nothing
	}

	var ref *sqlparser.ColumnRef
	var lit sqltypes.Value
	op := x.Op
	switch {
	case lIsRef && rConst:
		ref, lit = lRef, rv
	case rIsRef && lConst:
		ref, lit = rRef, lv
		op = flipCmp(op)
	default:
		return top
	}

	if lit.IsNull() {
		// comparison with NULL literal is never truthy
		if want {
			return nil
		}
		return top
	}

	k := s.refKind(ref)
	if !k.known {
		return top
	}
	v := canonicalVar(s.r.Event.Class, ref)

	// Kind-mismatched comparison: Compare orders by kind tag, so the
	// outcome is fixed whenever the variable is non-NULL.
	refNum, litNum := numericKind(k.kind), lit.IsNumeric()
	if refNum != litNum || (!refNum && k.kind != lit.Kind()) {
		holds := expr.CmpHolds(op, kindOrder(k.kind, lit.Kind()))
		return s.constForNonNull(v, k.kind, holds, want)
	}

	if refNum {
		f, _ := lit.AsFloat()
		return s.numericAtom(v, k.kind, op, f, want)
	}
	if k.kind == sqltypes.KindString {
		return s.stringAtom(v, op, lit.Str(), want)
	}
	// Time and blob kinds: no literal syntax reaches here; claim nothing.
	return top
}

// constForNonNull builds the worlds for an atom whose outcome is `holds`
// whenever the variable is non-NULL (kind-mismatch and same-ref cases).
func (s *satChecker) constForNonNull(v string, kind sqltypes.Kind, holds, want bool) worldList {
	vc := unconstrainedNum(kind)
	if kind == sqltypes.KindString {
		vc = &varConstraint{kind: kind, allowNull: true}
	}
	if holds == want {
		if want {
			vc.allowNull = false
			return worldList{world{v: vc}}
		}
		return top
	}
	if want {
		return nil
	}
	vc.valueSetEmpty = true // only NULL makes it false
	return worldList{world{v: vc}}
}

// numericAtom builds the worlds for `v op lit` over a numeric variable.
func (s *satChecker) numericAtom(v string, kind sqltypes.Kind, op sqlparser.CmpOp, lit float64, want bool) worldList {
	if !want {
		// Not truthy: NULL, or the inverted comparison.
		null := unconstrainedNum(kind)
		null.valueSetEmpty = true
		inv := s.numericAtom(v, kind, invertCmp(op), lit, true)
		return union(worldList{world{v: null}}, inv)
	}
	mk := func(f func(vc *varConstraint)) worldList {
		vc := unconstrainedNum(kind)
		vc.allowNull = false
		f(vc)
		if !vc.consistent() {
			return nil
		}
		return worldList{world{v: vc}}
	}
	switch op {
	case sqlparser.CmpEq:
		return mk(func(vc *varConstraint) { vc.lo, vc.hi = lit, lit })
	case sqlparser.CmpNe:
		return mk(func(vc *varConstraint) { vc.excl = []float64{lit} })
	case sqlparser.CmpLt:
		return mk(func(vc *varConstraint) { vc.hi, vc.hiOpen = lit, true })
	case sqlparser.CmpLe:
		return mk(func(vc *varConstraint) { vc.hi = lit })
	case sqlparser.CmpGt:
		return mk(func(vc *varConstraint) { vc.lo, vc.loOpen = lit, true })
	case sqlparser.CmpGe:
		return mk(func(vc *varConstraint) { vc.lo = lit })
	}
	return top
}

// stringAtom builds the worlds for `v op lit` over a string variable.
// Only equality structure is tracked; ordering comparisons claim nothing
// beyond non-NULLness.
func (s *satChecker) stringAtom(v string, op sqlparser.CmpOp, lit string, want bool) worldList {
	if !want {
		null := &varConstraint{kind: sqltypes.KindString, allowNull: true, valueSetEmpty: true}
		inv := s.stringAtom(v, invertCmp(op), lit, true)
		return union(worldList{world{v: null}}, inv)
	}
	vc := &varConstraint{kind: sqltypes.KindString}
	switch op {
	case sqlparser.CmpEq:
		vc.eq = map[string]bool{lit: true}
	case sqlparser.CmpNe:
		vc.strExcl = map[string]bool{lit: true}
	default:
		// Lexicographic range: satisfiable for any literal except the
		// empty-string edge (nothing sorts below "").
		if op == sqlparser.CmpLt && lit == "" {
			return nil
		}
	}
	return worldList{world{v: vc}}
}

// invertCmp returns the complement operator (¬(a op b) for non-NULL
// operands).
func invertCmp(op sqlparser.CmpOp) sqlparser.CmpOp {
	switch op {
	case sqlparser.CmpEq:
		return sqlparser.CmpNe
	case sqlparser.CmpNe:
		return sqlparser.CmpEq
	case sqlparser.CmpLt:
		return sqlparser.CmpGe
	case sqlparser.CmpLe:
		return sqlparser.CmpGt
	case sqlparser.CmpGt:
		return sqlparser.CmpLe
	default:
		return sqlparser.CmpLt
	}
}

// flipCmp mirrors the operator across swapped operands (c op x ⇒ x op' c).
func flipCmp(op sqlparser.CmpOp) sqlparser.CmpOp {
	switch op {
	case sqlparser.CmpLt:
		return sqlparser.CmpGt
	case sqlparser.CmpLe:
		return sqlparser.CmpGe
	case sqlparser.CmpGt:
		return sqlparser.CmpLt
	case sqlparser.CmpGe:
		return sqlparser.CmpLe
	default:
		return op
	}
}

// kindOrder mirrors sqltypes.Compare's cross-kind ordering for statically
// known, non-matching kinds.
func kindOrder(a, b sqltypes.Kind) int {
	if a < b {
		return -1
	}
	if a > b {
		return 1
	}
	return 0
}
