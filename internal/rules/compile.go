package rules

import (
	"fmt"
	"strings"
	"sync/atomic"

	"sqlcm/internal/expr"
	"sqlcm/internal/lat"
	"sqlcm/internal/monitor"
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

// evalState is the expr.Env.Ctx of a condition: the bound context plus
// what its leaves resolve from it. Dispatch borrows one per event from the
// engine's pool and every rule of the event reuses it.
type evalState struct {
	eng *Engine
	ctx *Ctx
	// objs holds ctx.Objects by monitor.ClassID, filled on first use.
	objs   [monitor.NumClasses]monitor.Object
	filled bool
	// key memoizes keyLAT's encoded group key for one rule evaluation.
	keyLAT *lat.Table
	key    []byte
	keyOK  bool
	// base is the context Dispatch binds an event's objects into.
	base Ctx
}

// bind makes ctx the context evaluated next.
func (st *evalState) bind(ctx *Ctx) { st.ctx, st.filled = ctx, false }

// reset drops the dispatched event, keeping the key buffer and the base
// context's bound getter.
func (st *evalState) reset() {
	*st = evalState{eng: st.eng, key: st.key[:0], base: Ctx{get: st.base.get}}
}

// holds evaluates a compiled condition against the bound context.
//
//sqlcm:hotpath
func (st *evalState) holds(c cond) (bool, error) {
	st.keyLAT = nil
	return expr.EvalBool(c, expr.Env{Ctx: st})
}

// object returns the bound context's object of a class id, or nil.
func (st *evalState) object(class int) monitor.Object {
	if !st.filled {
		st.objs = [monitor.NumClasses]monitor.Object{}
		for name, o := range st.ctx.Objects {
			if id, ok := monitor.ClassID(name); ok {
				st.objs[id] = o
			}
		}
		st.filled = true
	}
	return st.objs[class]
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

// Column compiles an attribute or LAT-column reference; a qualifier that
// names a monitored class makes a slot reference, any other names a LAT.
func (condLeaves) Column(c *sqlparser.ColumnRef) (cond, error) {
	if c.Table == "" {
		return &primaryRef{probe: monitor.NewProbe(c.Column)}, nil
	}
	if class, ok := monitor.ClassID(c.Table); ok {
		return &classRef{class: class, name: c.Table, probe: monitor.NewProbe(c.Column)}, nil
	}
	return &latRef{lat: c.Table, col: c.Column}, nil
}

// primaryRef is a bare attribute of the event's primary object.
type primaryRef struct{ probe monitor.Probe }

func (r *primaryRef) Eval(env expr.Env) (sqltypes.Value, error) {
	p := env.Ctx.(*evalState).ctx.Primary
	if p == nil {
		return sqltypes.Null, fmt.Errorf("rules: unqualified attribute %q with no primary object", r.probe.Name)
	}
	v, ok := r.probe.Of(p)
	if !ok {
		return sqltypes.Null, fmt.Errorf("rules: %s has no attribute %q", p.Class(), r.probe.Name)
	}
	return v, nil
}

// classRef is Class.Attr: an attribute of the object in the class's slot.
type classRef struct {
	class int
	name  string // the class, for diagnostics
	probe monitor.Probe
}

func (r *classRef) Eval(env expr.Env) (sqltypes.Value, error) {
	obj := env.Ctx.(*evalState).object(r.class)
	if obj == nil {
		return sqltypes.Null, fmt.Errorf("rules: no %s object in context", r.name)
	}
	v, ok := r.probe.Of(obj)
	if !ok {
		return sqltypes.Null, fmt.Errorf("rules: %s has no attribute %q", r.name, r.probe.Name)
	}
	return v, nil
}

// latRef is LAT.Column. LATs can be defined and dropped after the rule, so
// the name is resolved per evaluation, the column position only when it
// denotes another table than last time.
type latRef struct {
	lat, col string
	pos      atomic.Pointer[latColumn]
}

// latColumn is a column position in one table.
type latColumn struct {
	table *lat.Table
	idx   int
}

func (r *latRef) Eval(env expr.Env) (sqltypes.Value, error) {
	st := env.Ctx.(*evalState)
	table, ok := st.eng.env.LAT(r.lat)
	if !ok {
		return sqltypes.Null, fmt.Errorf("rules: unknown object or LAT %q", r.lat)
	}
	c := r.pos.Load()
	if c == nil || c.table != table {
		c = &latColumn{table: table, idx: table.ColumnIndex(r.col)}
		r.pos.Store(c)
	}
	if c.idx < 0 {
		return sqltypes.Null, fmt.Errorf("rules: LAT %s has no column %q", r.lat, r.col)
	}
	if st.keyLAT != table {
		st.key, st.keyOK = table.GroupKey(st.key[:0], st.ctx.getter())
		st.keyLAT = table
	}
	// No matching row (or no grouping attribute to find one by) reads NULL.
	if !st.keyOK {
		return sqltypes.Null, nil
	}
	v, _ := table.LookupColumn(st.key, c.idx)
	return v, nil
}

// describeActions renders a rule's action list for diagnostics.
func describeActions(actions []Action) string {
	parts := make([]string, len(actions))
	for i, a := range actions {
		parts[i] = a.Describe()
	}
	return strings.Join(parts, "; ")
}
