package expr

import (
	"fmt"
	"testing"

	"sqlcm/internal/sqlparser"
	"sqlcm/internal/sqltypes"
)

// literalLeaves admits no references; filter selects the rule engine's
// reading of AND/OR/NOT operands.
type literalLeaves struct{ filter bool }

func (literalLeaves) Column(c *sqlparser.ColumnRef) (Evaluator, error) {
	return nil, fmt.Errorf("no column %s", c)
}
func (literalLeaves) Param(p *sqlparser.Param) (Evaluator, error) {
	return nil, fmt.Errorf("no parameter @%s", p.Name)
}
func (l literalLeaves) Func(f *sqlparser.FuncCall) (Evaluator, error) { return ScalarFunc(f, l) }
func (l literalLeaves) Operand(p Predicate) Predicate {
	if l.filter {
		return Filter(p)
	}
	return p
}

func eval(t *testing.T, src string, leaves Leaves) string {
	t.Helper()
	parsed, err := sqlparser.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	ev, err := Compile(parsed, leaves)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	v, err := ev.Eval(Env{})
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	if fired, _ := EvalBool(ev, Env{}); fired != (!v.IsNull() && Truthy(v)) {
		t.Errorf("EvalBool(%s) = %v, value %s", src, fired, v)
	}
	return v.String()
}

// TestKleeneTables checks AND, OR and NOT over every combination of TRUE,
// FALSE and NULL operands against the textbook tables, and the filtered
// reading (NULL operand = FALSE) against the same tables with NULL replaced.
func TestKleeneTables(t *testing.T) {
	const T, F, N = "TRUE", "FALSE", "NULL"
	and := func(a, b string) string {
		switch {
		case a == F || b == F:
			return F
		case a == N || b == N:
			return N
		}
		return T
	}
	or := func(a, b string) string {
		switch {
		case a == T || b == T:
			return T
		case a == N || b == N:
			return N
		}
		return F
	}
	not := func(a string) string { return map[string]string{T: F, F: T, N: N}[a] }
	filtered := func(a string) string {
		if a == N {
			return F
		}
		return a
	}
	show := func(s string) string { return sqltypes.NewBool(s == T).String() }
	want := func(s string) string {
		if s == N {
			return sqltypes.Null.String()
		}
		return show(s)
	}
	for _, a := range []string{T, F, N} {
		if got := eval(t, "NOT "+a, literalLeaves{}); got != want(not(a)) {
			t.Errorf("NOT %s = %s, want %s", a, got, want(not(a)))
		}
		if got := eval(t, "NOT "+a, literalLeaves{filter: true}); got != want(not(filtered(a))) {
			t.Errorf("filtered NOT %s = %s, want %s", a, got, want(not(filtered(a))))
		}
		for _, b := range []string{T, F, N} {
			for op, fn := range map[string]func(a, b string) string{"AND": and, "OR": or} {
				src := a + " " + op + " " + b
				if got := eval(t, src, literalLeaves{}); got != want(fn(a, b)) {
					t.Errorf("%s = %s, want %s", src, got, want(fn(a, b)))
				}
				if got := eval(t, src, literalLeaves{filter: true}); got != want(fn(filtered(a), filtered(b))) {
					t.Errorf("filtered %s = %s, want %s", src, got, want(fn(filtered(a), filtered(b))))
				}
			}
		}
	}
}

func TestScalarFuncs(t *testing.T) {
	for src, want := range map[string]string{
		"ABS(-4)":           "4",
		"ABS(-2.5)":         "2.5",
		"ABS(NULL) IS NULL": sqltypes.NewBool(true).String(),
		"LENGTH('abc')":     "3",
		"LEN('')":           "0",
		"UPPER('ab')":       "AB",
		"LOWER('Ab')":       "ab",
	} {
		if got := eval(t, src, literalLeaves{}); got != want {
			t.Errorf("%s = %s, want %s", src, got, want)
		}
	}
	for _, src := range []string{"NOPE(1)", "ABS(1, 2)", "UPPER()"} {
		parsed, err := sqlparser.ParseExpr(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := Compile(parsed, literalLeaves{}); err == nil {
			t.Errorf("Compile(%s) succeeded, want an error", src)
		}
	}
	parsed, _ := sqlparser.ParseExpr("UPPER(1)")
	ev, err := Compile(parsed, literalLeaves{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Eval(Env{}); err == nil {
		t.Error("UPPER(1) evaluated, want a kind error")
	}
}

// A predicate evaluates without allocating, whether it is a predicate by
// nature or a plain value read as one.
func TestEvalBoolDoesNotAllocate(t *testing.T) {
	for _, src := range []string{"1 = 1 AND NOT 2 < 1", "1"} {
		parsed, err := sqlparser.ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := Compile(parsed, literalLeaves{})
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() {
			if ok, err := EvalBool(ev, Env{}); !ok || err != nil {
				t.Fatalf("EvalBool(%s) = %v, %v", src, ok, err)
			}
		}); n != 0 {
			t.Errorf("EvalBool(%s) allocates %v times per call", src, n)
		}
	}
}
