package rules

import (
	"strings"
	"testing"

	"sqlcm/internal/exec"
	"sqlcm/internal/expr"
	"sqlcm/internal/lat"
	"sqlcm/internal/monitor"
	"sqlcm/internal/plan"
	"sqlcm/internal/sqlparser"
	"sqlcm/internal/sqltypes"
)

// TestCompileCondTruthTable pins the three-valued logic of compiled
// conditions, node by node. A column of a LAT row that does not exist
// reads NULL — which is what makes LAT references ∃-quantified (§5.2):
// NULL propagates through arithmetic, comparison and negation, counts as
// false under AND/OR/NOT, and satisfies IS NULL. Every row is evaluated
// twice: as a rule condition, and as a WHERE predicate through the
// executor's leaves (whereValue), which must agree except in the cells
// whereDiffers names.
func TestCompileCondTruthTable(t *testing.T) {
	env := newFakeEnv()
	table, err := lat.New(lat.Spec{
		Name:    "L",
		GroupBy: []string{"Logical_Signature"},
		Aggs:    []lat.AggCol{{Func: lat.Avg, Attr: "Duration", Name: "AvgD"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	table.Insert(queryObj(1, "seen", 4).Get) //nolint:errcheck
	env.lats["L"] = table
	e := NewEngine(env)

	// L has a row for signature "seen" (AvgD = 4) and none for "unseen".
	ctxFor := func(sig string) *Ctx {
		q := queryObj(2, sig, 10)
		return &Ctx{Objects: map[string]monitor.Object{monitor.ClassQuery: q}, Primary: q}
	}

	unseenDiffers := map[string]bool{}
	for k := range whereDiffers {
		unseenDiffers[k] = true
	}

	cases := []struct {
		cond string
		sig  string
		want string // "true", "false", "null", or "error: <substring>"
	}{
		// Literals, references, arithmetic.
		{"1 = 1", "seen", "true"},
		{"Duration = 10", "seen", "true"},
		{"Query.Duration + 1 = 11", "seen", "true"},
		{"L.AvgD = 4", "seen", "true"},
		{"L.AvgD * 2 < Duration", "seen", "true"},

		// Every comparison operator.
		{"1 <> 2", "seen", "true"},
		{"1 < 2", "seen", "true"},
		{"2 <= 2", "seen", "true"},
		{"1 > 2", "seen", "false"},
		{"1 >= 2", "seen", "false"},

		// Neg.
		{"-Duration = -10", "seen", "true"},
		{"-Duration < 0", "seen", "true"},
		{"-L.AvgD < 0", "unseen", "null"},
		{"-Query_Text < 0", "seen", "error: "},

		// NULL operands: comparison and arithmetic yield NULL, not false.
		{"NULL = 1", "seen", "null"},
		{"1 <> NULL", "seen", "null"},
		{"NULL = NULL", "seen", "null"},
		{"NULL + 1 > 0", "seen", "null"},
		{"Duration * NULL = 0", "seen", "null"},

		// IS NULL / IS NOT NULL never return NULL; a missing row is NULL.
		{"NULL IS NULL", "seen", "true"},
		{"NULL IS NOT NULL", "seen", "false"},
		{"Duration IS NULL", "seen", "false"},
		{"Duration IS NOT NULL", "seen", "true"},
		{"L.AvgD IS NULL", "unseen", "true"},
		{"L.AvgD IS NOT NULL", "unseen", "false"},
		{"L.AvgD IS NOT NULL", "seen", "true"},

		// NOT: NULL counts as not-true, so NOT yields TRUE.
		{"NOT 1 = 2", "seen", "true"},
		{"NOT 1 = 1", "seen", "false"},
		{"NOT NULL = 1", "seen", "true"},
		{"NOT L.AvgD > 0", "unseen", "true"},

		// A missing row propagates through comparison and arithmetic...
		{"L.AvgD > 0", "unseen", "null"},
		{"1 < L.AvgD", "unseen", "null"},
		{"L.AvgD + 1 > 0", "unseen", "null"},
		{"1 + L.AvgD > 0", "unseen", "null"},
		// ...and is plain false under AND / OR, on either side.
		{"L.AvgD > 0 AND 1 = 1", "unseen", "false"},
		{"1 = 1 AND L.AvgD > 0", "unseen", "false"},
		{"L.AvgD > 0 OR 1 = 1", "unseen", "true"},
		{"1 = 1 OR L.AvgD > 0", "unseen", "true"},
		{"L.AvgD > 0 OR 1 = 2", "unseen", "false"},
		{"1 = 2 OR L.AvgD > 0", "unseen", "false"},

		// AND / OR with NULL: two-valued at this level (NULL is not-true).
		{"NULL = 1 AND 1 = 1", "seen", "false"},
		{"1 = 1 AND NULL = 1", "seen", "false"},
		{"NULL = 1 OR 1 = 1", "seen", "true"},
		{"NULL = 1 OR 1 = 2", "seen", "false"},
		{"1 = 2 AND NULL = 1", "seen", "false"},

		// Errors surface from either operand of every binary node.
		{"Nope > 1", "seen", "error: no attribute"},
		{"1 < Nope", "seen", "error: no attribute"},
		{"Nope + 1 > 0", "seen", "error: no attribute"},
		{"1 + Nope > 0", "seen", "error: no attribute"},
		{"Nope = 1 AND 1 = 1", "seen", "error: no attribute"},
		{"1 = 1 AND Nope = 1", "seen", "error: no attribute"},
		{"NOT Nope = 1", "seen", "error: no attribute"},
		{"Nope IS NULL", "seen", "error: no attribute"},
		{"Blocker.ID = 1", "seen", "error: no Blocker object in context"},
		{"Query.Nope = 1", "seen", "error: Query has no attribute"},
		{"Missing_LAT.X = 1", "seen", "error: unknown object or LAT"},
		{"L.Nope = 1", "seen", "error: LAT L has no column"},
	}
	for _, tc := range cases {
		t.Run(tc.cond+"/"+tc.sig, func(t *testing.T) {
			parsed, err := ParseCondition(tc.cond)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			fn, err := compileCond(parsed)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			v, err := fn.Eval(expr.Env{Ctx: &evalState{eng: e, ctx: ctxFor(tc.sig)}})
			got := nodeValue(v, err)
			if got != tc.want && !(strings.HasPrefix(tc.want, "error: ") && strings.Contains(got, tc.want[len("error: "):]) && err != nil) {
				t.Errorf("%s = %s, want %s", tc.cond, got, tc.want)
			}
			// Filter semantics on top: only TRUE fires a rule.
			fired, ferr := e.runCond(fn, ctxFor(tc.sig))
			if (ferr != nil) != (err != nil) || fired != (got == "true") {
				t.Errorf("runCond(%s) = %v, %v; node value %s", tc.cond, fired, ferr, got)
			}

			// The same expression through the executor's leaves, the
			// second time with Duration bound as a parameter.
			want, differs := whereDiffers[tc.cond+"/"+tc.sig]
			if !differs {
				want = tc.want
			}
			delete(unseenDiffers, tc.cond+"/"+tc.sig)
			asParam := strings.ReplaceAll(strings.ReplaceAll(tc.cond, "Query.Duration", "@D"), "Duration", "@D")
			for _, src := range []string{tc.cond, asParam} {
				got := whereValue(t, src, tc.sig == "seen")
				if got != want && !(strings.HasPrefix(got, "error: ") && strings.HasPrefix(want, "error: ")) {
					t.Errorf("WHERE %s = %s, want %s", src, got, want)
				}
			}
		})
	}
	if len(unseenDiffers) > 0 {
		t.Errorf("whereDiffers names cells the table does not have: %v", unseenDiffers)
	}
}

// nodeValue labels the result of evaluating one node.
func nodeValue(v sqltypes.Value, err error) string {
	switch {
	case err != nil:
		return "error: " + err.Error()
	case v.IsNull():
		return "null"
	case expr.Truthy(v):
		return "true"
	default:
		return "false"
	}
}

// whereDiffers lists the cells of the truth table where the expression as
// a WHERE predicate — plain three-valued logic, NULL filtered only at the
// top — has a different node value than as a rule condition, which filters
// every operand of AND, OR and NOT. NOT over NULL is the one shape in the
// table where the outcome differs too: the rule fires, the WHERE rejects
// the row.
var whereDiffers = map[string]string{
	"NOT NULL = 1/seen":           "null", // rule: true
	"NOT L.AvgD > 0/unseen":       "null", // rule: true
	"L.AvgD > 0 AND 1 = 1/unseen": "null", // rule: false, as all below
	"1 = 1 AND L.AvgD > 0/unseen": "null",
	"L.AvgD > 0 OR 1 = 2/unseen":  "null",
	"1 = 2 OR L.AvgD > 0/unseen":  "null",
	"NULL = 1 AND 1 = 1/seen":     "null",
	"1 = 1 AND NULL = 1/seen":     "null",
	"NULL = 1 OR 1 = 2/seen":      "null",
}

// whereValue evaluates src through the executor's leaves over one row that
// carries the truth table's probes and LAT column — a missing LAT row is a
// NULL column, as an outer join would produce it. A reference the rule
// engine fails on at evaluation fails here at compilation.
func whereValue(t *testing.T, src string, latRow bool) string {
	t.Helper()
	parsed, err := sqlparser.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	schema := []plan.ColMeta{{Qual: "Query", Name: "Duration"}, {Qual: "Query", Name: "Query_Text"}, {Qual: "L", Name: "AvgD"}}
	env := exec.Env{
		Row:    exec.Row{sqltypes.NewFloat(10), sqltypes.NewString("SELECT x"), sqltypes.Null},
		Params: map[string]sqltypes.Value{"D": sqltypes.NewFloat(10)},
	}
	if latRow {
		env.Row[2] = sqltypes.NewFloat(4)
	}
	ev, err := exec.Compile(parsed, schema)
	if err != nil {
		return "error: " + err.Error()
	}
	got := nodeValue(ev.Eval(env))
	if fired, ferr := expr.EvalBool(ev, env); fired != (got == "true") || (ferr != nil) != strings.HasPrefix(got, "error: ") {
		t.Errorf("EvalBool(%s) = %v, %v; node value %s", src, fired, ferr, got)
	}
	return got
}

// Conditions take no @parameters, at any depth; a nil condition
// compiles to the always-true nil function.
func TestCompileCondRejectsParams(t *testing.T) {
	for _, src := range []string{"@p", "@p + 1 > 0", "1 > @p", "1 + @p > 0", "@p = 1 AND 1 = 1", "1 = 1 OR @p = 1", "NOT @p = 1", "-@p < 0", "@p IS NULL"} {
		expr, err := sqlparser.ParseExpr(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := compileCond(expr); err == nil || !strings.Contains(err.Error(), "parameters not allowed") {
			t.Errorf("compileCond(%q) error = %v, want parameter rejection", src, err)
		}
	}
	if fn, err := compileCond(nil); fn != nil || err != nil {
		t.Errorf("compileCond(nil) = %v, %v; want nil, nil", fn != nil, err)
	}
}

func TestRuleStringDescribesActions(t *testing.T) {
	r := &Rule{
		Name:    "r",
		Event:   monitor.EvQueryCommit,
		Actions: []Action{&SendMailAction{Address: "dba@example.com", Text: "slow"}, &CancelAction{}},
	}
	got := r.String()
	for _, want := range []string{"r: Event: Query.Commit Condition: TRUE Action: ", "; "} {
		if !strings.Contains(got, want) {
			t.Errorf("Rule.String() = %q, missing %q", got, want)
		}
	}
}
