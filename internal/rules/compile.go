package rules

import (
	"fmt"
	"strings"

	"sqlcm/internal/expr"
	"sqlcm/internal/sqlparser"
	"sqlcm/internal/sqltypes"
)

// Conditions are compiled once at rule-registration time by the engine's one
// expression compiler (internal/expr); per-event evaluation then involves no
// AST traversal. This is what keeps rule evaluation cheap enough to run
// hundreds of times per query (§2.1: "ECA rules are amenable to
// implementation with low CPU and memory overheads").
//
// A condition is SQL three-valued logic with two additions. A column of a
// LAT row that does not exist reads NULL, which makes LAT references
// ∃-quantified (§5.2); and every operand of AND, OR and NOT is read as a
// WHERE clause reads its predicate (NULL counts as false), as is the
// condition as a whole. This file supplies only the leaves: how a reference
// finds its value in a rule evaluation.

// evalState is the per-evaluation scratch: the rule context plus the
// memoized LAT-row lookups.
type evalState struct {
	eng     *Engine
	ctx     *Ctx
	latRows map[string][]sqltypes.Value
}

// cond is a compiled condition; its leaves find the evalState in
// expr.Env.Ctx.
type cond = expr.Evaluator

// compileCond compiles a condition expression. Returns nil for a nil
// expression (always-true rules).
func compileCond(e sqlparser.Expr) (cond, error) {
	if e == nil {
		return nil, nil
	}
	return expr.Compile(e, condLeaves{})
}

type condLeaves struct{}

func (condLeaves) Param(*sqlparser.Param) (cond, error) {
	return nil, fmt.Errorf("rules: parameters not allowed in conditions")
}

func (condLeaves) Func(f *sqlparser.FuncCall) (cond, error) {
	return nil, fmt.Errorf("rules: unsupported condition node %T", f)
}

func (condLeaves) Operand(p expr.Predicate) expr.Predicate { return expr.Filter(p) }

// Column compiles an attribute or LAT-column reference. Whether the
// qualifier names a monitored class or a LAT is decided per evaluation
// (the object may be bound by the event, and LATs can be defined after the
// rule), but the reference pieces are pre-split.
func (condLeaves) Column(c *sqlparser.ColumnRef) (cond, error) {
	if c.Table == "" {
		return &primaryRef{col: c.Column}, nil
	}
	return &qualifiedRef{qual: c.Table, col: c.Column, isClass: isClass(c.Table)}, nil
}

// primaryRef is a bare attribute of the event's primary object.
type primaryRef struct{ col string }

func (r *primaryRef) Eval(env expr.Env) (sqltypes.Value, error) {
	st := env.Ctx.(*evalState)
	if st.ctx.Primary == nil {
		return sqltypes.Null, fmt.Errorf("rules: unqualified attribute %q with no primary object", r.col)
	}
	v, ok := st.ctx.Primary.Get(r.col)
	if !ok {
		return sqltypes.Null, fmt.Errorf("rules: %s has no attribute %q", st.ctx.Primary.Class(), r.col)
	}
	return v, nil
}

// qualifiedRef is Class.Attr or LAT.Column.
type qualifiedRef struct {
	qual, col string
	isClass   bool
}

func (r *qualifiedRef) Eval(env expr.Env) (sqltypes.Value, error) {
	st := env.Ctx.(*evalState)
	if obj, ok := st.ctx.Objects[r.qual]; ok {
		v, found := obj.Get(r.col)
		if !found {
			return sqltypes.Null, fmt.Errorf("rules: %s has no attribute %q", r.qual, r.col)
		}
		return v, nil
	}
	if r.isClass {
		return sqltypes.Null, fmt.Errorf("rules: no %s object in context", r.qual)
	}
	// LAT reference: memoized row lookup; no matching row reads NULL.
	table, ok := st.eng.env.LAT(r.qual)
	if !ok {
		return sqltypes.Null, fmt.Errorf("rules: unknown object or LAT %q", r.qual)
	}
	row, cached := st.latRows[r.qual]
	if !cached {
		var found bool
		row, found = table.LookupByGetter(st.ctx.Attr)
		if !found {
			return sqltypes.Null, nil
		}
		if st.latRows == nil {
			st.latRows = make(map[string][]sqltypes.Value, 2)
		}
		st.latRows[r.qual] = row
	}
	idx := table.ColumnIndex(r.col)
	if idx < 0 {
		return sqltypes.Null, fmt.Errorf("rules: LAT %s has no column %q", r.qual, r.col)
	}
	return row[idx], nil
}

// describeActions renders a rule's action list for diagnostics.
func describeActions(actions []Action) string {
	parts := make([]string, len(actions))
	for i, a := range actions {
		parts[i] = a.Describe()
	}
	return strings.Join(parts, "; ")
}
