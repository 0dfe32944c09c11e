// Package expr is the one compiler and evaluator of SQL scalar
// expressions: literals, arithmetic, comparison, AND/OR/NOT, negation,
// IS [NOT] NULL and scalar functions under SQL three-valued logic. The
// executor (WHERE, projections, join keys) and the rule engine (§5.2
// conditions) both compile through it; what differs between them — where a
// reference reads its value from — is supplied by the caller as Leaves.
package expr

import (
	"fmt"
	"math"
	"strings"

	"sqlcm/internal/sqlparser"
	"sqlcm/internal/sqltypes"
)

// Env is what leaves read their values from.
type Env struct {
	// Row and Params are the executor's current tuple and the statement's
	// bind parameters.
	Row    []sqltypes.Value
	Params map[string]sqltypes.Value
	// Ctx is the state of any other caller's leaves (the rule engine's
	// per-evaluation object context).
	Ctx any
}

// Evaluator is a compiled expression.
type Evaluator interface {
	Eval(env Env) (sqltypes.Value, error)
}

// Truth is a value of SQL three-valued logic.
type Truth int8

const (
	False Truth = iota
	True
	Unknown
)

// Predicate is a compiled expression read as a truth value. Comparison,
// AND/OR/NOT and IS NULL are predicates by nature and pass truth values
// among themselves without building a sqltypes.Value. With an error the
// truth value is Unknown.
type Predicate interface {
	Test(env Env) (Truth, error)
}

// Leaves compiles the nodes whose meaning depends on the caller.
type Leaves interface {
	Column(c *sqlparser.ColumnRef) (Evaluator, error)
	Param(p *sqlparser.Param) (Evaluator, error)
	// Func compiles a function call; ScalarFunc is there for callers that
	// admit the built-in scalar functions.
	Func(f *sqlparser.FuncCall) (Evaluator, error)
	// Operand is applied to each compiled operand of AND, OR and NOT. The
	// executor returns it unchanged (an Unknown operand stays Unknown); a
	// rule condition reads every operand as a WHERE clause reads its
	// predicate and returns Filter(p).
	Operand(p Predicate) Predicate
}

// Compile binds e against leaves.
func Compile(e sqlparser.Expr, leaves Leaves) (Evaluator, error) {
	switch x := e.(type) {
	case *sqlparser.Literal:
		return &constEval{v: x.Val}, nil
	case *sqlparser.ColumnRef:
		return leaves.Column(x)
	case *sqlparser.Param:
		return leaves.Param(x)
	case *sqlparser.FuncCall:
		return leaves.Func(x)
	case *sqlparser.Arith:
		l, r, err := compilePair(x.Left, x.Right, leaves)
		if err != nil {
			return nil, err
		}
		return &arithEval{op: x.Op, l: l, r: r}, nil
	case *sqlparser.Comparison:
		l, r, err := compilePair(x.Left, x.Right, leaves)
		if err != nil {
			return nil, err
		}
		return &predValue{&cmpTest{op: x.Op, l: l, r: r}}, nil
	case *sqlparser.Logic:
		l, r, err := compilePair(x.Left, x.Right, leaves)
		if err != nil {
			return nil, err
		}
		return &predValue{&logicTest{
			and: x.Op == sqlparser.LogicAnd,
			l:   leaves.Operand(asPredicate(l)),
			r:   leaves.Operand(asPredicate(r)),
		}}, nil
	case *sqlparser.Not:
		inner, err := Compile(x.Expr, leaves)
		if err != nil {
			return nil, err
		}
		return &predValue{&notTest{p: leaves.Operand(asPredicate(inner))}}, nil
	case *sqlparser.Neg:
		inner, err := Compile(x.Expr, leaves)
		if err != nil {
			return nil, err
		}
		return &negEval{e: inner}, nil
	case *sqlparser.IsNull:
		inner, err := Compile(x.Expr, leaves)
		if err != nil {
			return nil, err
		}
		return &predValue{&isNullTest{e: inner, negate: x.Negate}}, nil
	default:
		return nil, fmt.Errorf("expr: cannot compile %T", e)
	}
}

func compilePair(left, right sqlparser.Expr, leaves Leaves) (l, r Evaluator, err error) {
	if l, err = Compile(left, leaves); err != nil {
		return nil, nil, err
	}
	if r, err = Compile(right, leaves); err != nil {
		return nil, nil, err
	}
	return l, r, nil
}

// ScalarFunc compiles a call of a built-in scalar function, its argument
// bound against leaves.
func ScalarFunc(f *sqlparser.FuncCall, leaves Leaves) (Evaluator, error) {
	fn, ok := scalarFuncs[f.Name]
	if !ok {
		return nil, fmt.Errorf("expr: unknown function %s", f.Name)
	}
	if len(f.Args) != 1 {
		return nil, fmt.Errorf("expr: %s takes 1 argument", f.Name)
	}
	arg, err := Compile(f.Args[0], leaves)
	if err != nil {
		return nil, err
	}
	return &scalarFuncEval{name: f.Name, fn: fn, arg: arg}, nil
}

// scalarFuncs are the built-in scalar functions: each takes one non-NULL
// argument (NULL yields NULL without a call) and reports false for an
// argument of a kind it is not defined on.
var scalarFuncs = map[string]func(sqltypes.Value) (sqltypes.Value, bool){
	"ABS": func(v sqltypes.Value) (sqltypes.Value, bool) {
		switch v.Kind() {
		case sqltypes.KindInt:
			n := v.Int()
			if n < 0 {
				n = -n
			}
			return sqltypes.NewInt(n), true
		case sqltypes.KindFloat:
			return sqltypes.NewFloat(math.Abs(v.Float())), true
		}
		return sqltypes.Null, false
	},
	"LENGTH": length,
	"LEN":    length,
	"UPPER":  stringFunc(func(s string) sqltypes.Value { return sqltypes.NewString(strings.ToUpper(s)) }),
	"LOWER":  stringFunc(func(s string) sqltypes.Value { return sqltypes.NewString(strings.ToLower(s)) }),
}

var length = stringFunc(func(s string) sqltypes.Value { return sqltypes.NewInt(int64(len(s))) })

func stringFunc(f func(string) sqltypes.Value) func(sqltypes.Value) (sqltypes.Value, bool) {
	return func(v sqltypes.Value) (sqltypes.Value, bool) {
		if v.Kind() != sqltypes.KindString {
			return sqltypes.Null, false
		}
		return f(v.Str()), true
	}
}

// Truthy interprets a non-NULL value as a boolean condition: numeric and
// non-zero. Strings, times and blobs are never true.
func Truthy(v sqltypes.Value) bool {
	switch v.Kind() {
	case sqltypes.KindBool, sqltypes.KindInt:
		return v.Int() != 0
	case sqltypes.KindFloat:
		return v.Float() != 0
	default:
		return false
	}
}

// CmpHolds reports whether op holds for a sqltypes.Compare result.
func CmpHolds(op sqlparser.CmpOp, c int) bool {
	switch op {
	case sqlparser.CmpEq:
		return c == 0
	case sqlparser.CmpNe:
		return c != 0
	case sqlparser.CmpLt:
		return c < 0
	case sqlparser.CmpLe:
		return c <= 0
	case sqlparser.CmpGt:
		return c > 0
	default:
		return c >= 0
	}
}

// EvalBool evaluates a compiled predicate with filter semantics: NULL is
// treated as false.
func EvalBool(ev Evaluator, env Env) (bool, error) {
	var t Truth
	var err error
	if pv, ok := ev.(*predValue); ok {
		t, err = pv.p.Test(env)
	} else {
		t, err = (&valueTest{e: ev}).Test(env) // not asPredicate: this one stays on the stack
	}
	return t == True, err
}

// Filter reads p as a WHERE clause reads its predicate: Unknown is False.
func Filter(p Predicate) Predicate { return &filterTest{p: p} }

type filterTest struct{ p Predicate }

func (f *filterTest) Test(env Env) (Truth, error) {
	t, err := f.p.Test(env)
	if t == Unknown && err == nil {
		t = False
	}
	return t, err
}

// predValue is a predicate in value position: its truth value as BOOL or
// NULL.
type predValue struct{ p Predicate }

func (e *predValue) Eval(env Env) (sqltypes.Value, error) {
	t, err := e.p.Test(env)
	if err != nil || t == Unknown {
		return sqltypes.Null, err
	}
	return sqltypes.NewBool(t == True), nil
}

// valueTest is a value in predicate position: NULL is Unknown, anything
// else is as Truthy has it.
type valueTest struct{ e Evaluator }

func (p *valueTest) Test(env Env) (Truth, error) {
	v, err := p.e.Eval(env)
	switch {
	case err != nil || v.IsNull():
		return Unknown, err
	case Truthy(v):
		return True, nil
	default:
		return False, nil
	}
}

func asPredicate(ev Evaluator) Predicate {
	if pv, ok := ev.(*predValue); ok {
		return pv.p
	}
	return &valueTest{e: ev}
}

type constEval struct{ v sqltypes.Value }

func (e *constEval) Eval(Env) (sqltypes.Value, error) { return e.v, nil }

type arithEval struct {
	op   sqltypes.BinaryOp
	l, r Evaluator
}

func (e *arithEval) Eval(env Env) (sqltypes.Value, error) {
	lv, err := e.l.Eval(env)
	if err != nil {
		return sqltypes.Null, err
	}
	rv, err := e.r.Eval(env)
	if err != nil {
		return sqltypes.Null, err
	}
	return sqltypes.Arith(e.op, lv, rv)
}

type negEval struct{ e Evaluator }

func (e *negEval) Eval(env Env) (sqltypes.Value, error) {
	v, err := e.e.Eval(env)
	if err != nil {
		return sqltypes.Null, err
	}
	return sqltypes.Negate(v)
}

type cmpTest struct {
	op   sqlparser.CmpOp
	l, r Evaluator
}

func (p *cmpTest) Test(env Env) (Truth, error) {
	lv, err := p.l.Eval(env)
	if err != nil {
		return Unknown, err
	}
	rv, err := p.r.Eval(env)
	if err != nil || lv.IsNull() || rv.IsNull() {
		return Unknown, err // a NULL operand: SQL three-valued logic
	}
	if CmpHolds(p.op, sqltypes.Compare(lv, rv)) {
		return True, nil
	}
	return False, nil
}

type logicTest struct {
	and  bool
	l, r Predicate
}

// Test is Kleene AND/OR, short-circuiting: the right operand is not
// evaluated once the left decides the result (False for AND, True for OR).
func (p *logicTest) Test(env Env) (Truth, error) {
	decides := True
	if p.and {
		decides = False
	}
	lt, err := p.l.Test(env)
	if err != nil || lt == decides {
		return lt, err
	}
	rt, err := p.r.Test(env)
	if err != nil || rt == decides || lt != Unknown {
		return rt, err
	}
	return Unknown, nil
}

type notTest struct{ p Predicate }

func (p *notTest) Test(env Env) (Truth, error) {
	t, err := p.p.Test(env)
	switch t {
	case True:
		t = False
	case False:
		t = True
	}
	return t, err
}

type isNullTest struct {
	e      Evaluator
	negate bool
}

func (p *isNullTest) Test(env Env) (Truth, error) {
	v, err := p.e.Eval(env)
	if err != nil {
		return Unknown, err
	}
	if v.IsNull() != p.negate {
		return True, nil
	}
	return False, nil
}

type scalarFuncEval struct {
	name string
	fn   func(sqltypes.Value) (sqltypes.Value, bool)
	arg  Evaluator
}

func (e *scalarFuncEval) Eval(env Env) (sqltypes.Value, error) {
	v, err := e.arg.Eval(env)
	if err != nil || v.IsNull() {
		return sqltypes.Null, err
	}
	out, ok := e.fn(v)
	if !ok {
		return sqltypes.Null, fmt.Errorf("expr: %s of %s", e.name, v.Kind())
	}
	return out, nil
}
