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
	// objs holds ctx.Objects by monitor.ClassID, each slot filled on
	// first use (bit id of filled).
	objs   [monitor.NumClasses]monitor.Object
	filled uint8
	// at is the event's one reading of the LAT clock, shared by every
	// LAT insert and lookup the event makes.
	at lat.Instant
	// group memoizes groupLAT's grouping values for one rule evaluation.
	groupLAT *lat.Table
	group    []sqltypes.Value
	groupOK  bool
	// vals and absent are the attribute buffer of LAT inserts.
	vals   []sqltypes.Value
	absent []bool
	// evals and fired count the event's rule evaluations and firings.
	evals, fired int64
	// base is the context Dispatch binds an event's objects into.
	base Ctx
}

// bind makes ctx the context evaluated next.
func (st *evalState) bind(ctx *Ctx) { st.ctx, ctx.st, st.filled = ctx, st, 0 }

// reset drops the dispatched event, keeping the buffers.
func (st *evalState) reset() {
	st.ctx, st.filled, st.groupLAT = nil, 0, nil
	st.objs = [monitor.NumClasses]monitor.Object{}
	st.at = lat.Instant{}
	st.evals, st.fired = 0, 0
	st.base.Objects, st.base.Primary, st.base.st = nil, nil, nil
}

// holds evaluates a compiled condition against the monitored objects in
// scope.
//
//sqlcm:hotpath
func (st *evalState) holds(c cond) (bool, error) {
	st.groupLAT = nil
	return expr.EvalBool(c, expr.Env{Ctx: st})
}

// object returns the bound context's object of a class (its id and
// name), or nil: one lookup per class and context, then a slot read.
func (st *evalState) object(class int, name string) monitor.Object {
	if st.filled&(1<<class) == 0 {
		st.objs[class] = st.ctx.Objects[name]
		st.filled |= 1 << class
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
	obj := env.Ctx.(*evalState).object(r.class, r.name)
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
// the name, the column position and the grouping probes are resolved again
// whenever the LAT registry has changed.
type latRef struct {
	lat, col string
	pos      atomic.Pointer[latColumn]
}

// latColumn is a column position in one bound table.
type latColumn struct {
	*latBinding
	idx int
}

func (r *latRef) Eval(env expr.Env) (sqltypes.Value, error) {
	st := env.Ctx.(*evalState)
	c := r.pos.Load()
	var old *latBinding
	if c != nil {
		old = c.latBinding
	}
	b, ok := resolveLAT(st.eng.env, r.lat, old)
	if !ok {
		return sqltypes.Null, fmt.Errorf("rules: unknown object or LAT %q", r.lat)
	}
	if b != old {
		c = &latColumn{latBinding: b, idx: b.table.ColumnIndex(r.col)}
		r.pos.Store(c)
	}
	table := b.table
	if c.idx < 0 {
		return sqltypes.Null, fmt.Errorf("rules: LAT %s has no column %q", r.lat, r.col)
	}
	if st.groupLAT != table {
		st.group, st.groupOK = st.groupOf(c.latBinding)
		st.groupLAT = table
	}
	// No matching row (or no grouping attribute to find one by) reads NULL.
	if !st.groupOK {
		return sqltypes.Null, nil
	}
	v, _ := table.LookupColumn(&st.at, st.group, c.idx)
	return v, nil
}

// latBinding is a LAT resolved for a rule at registry version ver
// (Env.LATVersion): the table, and what an insert reads (lat.Table.Attrs)
// as attribute references bound once, the grouping attributes first.
type latBinding struct {
	table *lat.Table
	ver   uint64
	attrs []attrRef
	ng    int
}

// resolveLAT returns the binding of the LAT called name: b itself while
// the registry is at the version b was resolved at, one atomic load;
// otherwise the table the name denotes now, bound again. ok is false when
// no LAT has the name.
func resolveLAT(env Env, name string, b *latBinding) (_ *latBinding, ok bool) {
	ver := env.LATVersion()
	if b != nil && b.ver == ver {
		return b, true
	}
	table, ok := env.LAT(name)
	if !ok {
		return nil, false
	}
	b = bindLAT(table)
	b.ver = ver
	return b, true
}

// bindLAT resolves a table's attributes against the rule context's shape.
func bindLAT(table *lat.Table) *latBinding {
	names := table.Attrs()
	b := &latBinding{table: table, attrs: make([]attrRef, len(names)), ng: len(table.Spec().GroupBy)}
	for i, name := range names {
		b.attrs[i] = newAttrRef(name)
	}
	return b
}

// Where an attrRef finds its object: a monitored class's slot (class >=
// 0), or one of these.
const (
	refPrimary = -1 - iota // a bare name: the primary object
	refOther               // a qualifier that names no monitored class
	refNone                // no attribute at all (COUNT(*)): always present
)

// attrRef is an attribute reference resolved once, as Ctx.Attr resolves
// it per call: "Class.Name" reads the class's object, a bare name the
// primary object.
type attrRef struct {
	class     int
	qualifier string // the class name, looked up in Ctx.Objects
	probe     monitor.Probe
}

func newAttrRef(ref string) attrRef {
	if ref == "" {
		return attrRef{class: refNone}
	}
	qual, name, ok := strings.Cut(ref, ".")
	if !ok {
		return attrRef{class: refPrimary, probe: monitor.NewProbe(ref)}
	}
	if id, isClass := monitor.ClassID(qual); isClass {
		return attrRef{class: id, qualifier: qual, probe: monitor.NewProbe(name)}
	}
	return attrRef{class: refOther, qualifier: qual, probe: monitor.NewProbe(name)}
}

// read returns the referenced attribute in the bound context.
func (st *evalState) read(a *attrRef) (sqltypes.Value, bool) {
	var o monitor.Object
	switch {
	case a.class >= 0:
		o = st.object(a.class, a.qualifier)
	case a.class == refPrimary:
		o = st.ctx.Primary
	case a.class == refOther:
		o = st.ctx.Objects[a.qualifier]
	default:
		return sqltypes.Null, true
	}
	if o == nil {
		return sqltypes.Null, false
	}
	return a.probe.Of(o)
}

// groupOf reads b's grouping values into the state's group buffer; false
// if the context lacks one.
func (st *evalState) groupOf(b *latBinding) ([]sqltypes.Value, bool) {
	g := st.group[:0]
	for i := range b.attrs[:b.ng] {
		v, ok := st.read(&b.attrs[i])
		if !ok {
			return g, false
		}
		g = append(g, v)
	}
	return g, true
}

// insert folds the bound context into b's table.
func (st *evalState) insert(b *latBinding) error {
	st.vals, st.absent = st.vals[:0], st.absent[:0]
	for i := range b.attrs {
		v, ok := st.read(&b.attrs[i])
		st.vals = append(st.vals, v)
		st.absent = append(st.absent, !ok)
	}
	return b.table.InsertValues(&st.at, st.vals, st.absent)
}

// describeActions renders a rule's action list for diagnostics.
func describeActions(actions []Action) string {
	parts := make([]string, len(actions))
	for i, a := range actions {
		parts[i] = a.Describe()
	}
	return strings.Join(parts, "; ")
}
