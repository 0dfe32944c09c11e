// Package exec implements the engine's execution layer: compiled
// expressions, Volcano-style operators for the physical plans produced by
// internal/plan, and DML execution with index maintenance and undo logging.
package exec

import (
	"fmt"

	"sqlcm/internal/expr"
	"sqlcm/internal/plan"
	"sqlcm/internal/sqlparser"
	"sqlcm/internal/sqltypes"
)

// Row is one tuple of values.
type Row []sqltypes.Value

// Clone copies the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Env is what a compiled expression reads its leaves from: the current
// tuple (Row) and the statement's bind parameters (Params).
type Env = expr.Env

// Evaluator is an expression compiled by Compile.
type Evaluator = expr.Evaluator

type colEval struct{ ord int }

func (e colEval) Eval(env Env) (sqltypes.Value, error) {
	if e.ord >= len(env.Row) {
		return sqltypes.Null, fmt.Errorf("exec: column ordinal %d out of range (row width %d)", e.ord, len(env.Row))
	}
	return env.Row[e.ord], nil
}

type paramEval struct{ name string }

func (e paramEval) Eval(env Env) (sqltypes.Value, error) {
	v, ok := env.Params[e.name]
	if !ok {
		return sqltypes.Null, fmt.Errorf("exec: unbound parameter @%s", e.name)
	}
	return v, nil
}

// ResolveColumn finds the ordinal of a column reference in a schema.
// Unqualified references must match exactly one column.
func ResolveColumn(c *sqlparser.ColumnRef, schema []plan.ColMeta) (int, error) {
	found := -1
	for i, m := range schema {
		if c.Table != "" {
			if m.Qual == c.Table && m.Name == c.Column {
				if found >= 0 {
					return 0, fmt.Errorf("exec: ambiguous column %s", c)
				}
				found = i
			}
			continue
		}
		if m.Name == c.Column {
			if found >= 0 {
				return 0, fmt.Errorf("exec: ambiguous column %s", c)
			}
			found = i
		}
	}
	if found < 0 {
		return 0, fmt.Errorf("exec: unknown column %s", c)
	}
	return found, nil
}

// schemaLeaves resolves the leaves of an expression against an operator's
// input schema.
type schemaLeaves []plan.ColMeta

func (s schemaLeaves) Column(c *sqlparser.ColumnRef) (Evaluator, error) {
	ord, err := ResolveColumn(c, s)
	if err != nil {
		return nil, err
	}
	return colEval{ord: ord}, nil
}

func (schemaLeaves) Param(p *sqlparser.Param) (Evaluator, error) {
	return paramEval{name: p.Name}, nil
}

func (s schemaLeaves) Func(f *sqlparser.FuncCall) (Evaluator, error) {
	if !sqlparser.AggregateFuncs[f.Name] {
		return expr.ScalarFunc(f, s)
	}
	// Aggregates appear in scalar position only above a HashAgg, whose
	// schema exposes one column per aggregate named by the call's textual
	// form.
	name := f.String()
	for i, m := range s {
		if m.Qual == "" && m.Name == name {
			return colEval{ord: i}, nil
		}
	}
	return nil, fmt.Errorf("exec: aggregate %s used outside aggregation context", name)
}

// Operand leaves AND/OR/NOT operands as they are: plain SQL three-valued
// logic, NULL filtered only at the top of a predicate (expr.EvalBool).
func (schemaLeaves) Operand(p expr.Predicate) expr.Predicate { return p }

// Compile binds e against schema. Aggregate function calls resolve to
// same-named output columns of the schema (as produced by PhysHashAgg), so
// HAVING and ORDER BY can reference aggregates.
func Compile(e sqlparser.Expr, schema []plan.ColMeta) (Evaluator, error) {
	return expr.Compile(e, schemaLeaves(schema))
}
