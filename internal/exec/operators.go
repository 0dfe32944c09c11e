package exec

import (
	"fmt"
	"math"
	"sort"

	"sqlcm/internal/expr"
	"sqlcm/internal/plan"
	"sqlcm/internal/sqltypes"
	"sqlcm/internal/storage"
	"sqlcm/internal/txn"
)

// Ctx carries per-execution state through the operator tree.
type Ctx struct {
	Txn    *txn.Txn
	Params map[string]sqltypes.Value

	// RowsExamined counts base-table rows touched (a probe source for the
	// monitor).
	RowsExamined int64
	// MaxChain tracks the longest version-chain walk the statement
	// performed (the Version_Chain_Length probe).
	MaxChain int
}

// noteDepth records a version-chain walk length.
func (c *Ctx) noteDepth(d int) {
	if d > c.MaxChain {
		c.MaxChain = d
	}
}

// Snapshot is the read view SELECT operators resolve rows at, without table
// locks: everything committed when the transaction began, plus its own
// writes.
func (c *Ctx) Snapshot() storage.Snapshot {
	return storage.Snapshot{TS: c.Txn.SnapshotTS(), Self: int64(c.Txn.ID)}
}

// Current is the read view of the statement as a writer (DML target
// collection): valid while its transaction holds the table's exclusive
// lock.
func (c *Ctx) Current() storage.Snapshot {
	if c.Txn == nil {
		return storage.CurrentSnapshot(0)
	}
	return storage.CurrentSnapshot(int64(c.Txn.ID))
}

// checkCancel polls the transaction's cancellation flag.
//
//sqlcm:cancelpoint
func (c *Ctx) checkCancel() error {
	if c.Txn == nil {
		return nil
	}
	return c.Txn.CheckCancelled()
}

// Operator is a Volcano-style iterator.
type Operator interface {
	// Open prepares the operator for iteration.
	Open(ctx *Ctx) error
	// Next returns the next row, or nil at end of input. Every
	// implementation polls the transaction's cancellation flag at its
	// iteration boundary, so a loop draining an operator is cancellable
	// by construction.
	//sqlcm:cancelpoint
	Next(ctx *Ctx) (Row, error)
	// Close releases resources. Close is idempotent.
	Close() error
}

// Build compiles a physical plan into an operator tree. DML plans are not
// handled here (see dml.go).
func Build(p plan.Physical, sp StoreProvider) (Operator, error) {
	switch n := p.(type) {
	case *plan.PhysScan:
		ts, err := sp.Store(n.Table.Name)
		if err != nil {
			return nil, err
		}
		return newScanOp(ts, n.Access, n.Schema())
	case *plan.PhysFilter:
		child, err := Build(n.Child, sp)
		if err != nil {
			return nil, err
		}
		pred, err := Compile(n.Pred, n.Child.Schema())
		if err != nil {
			return nil, err
		}
		return &filterOp{child: child, pred: pred}, nil
	case *plan.PhysProject:
		child, err := Build(n.Child, sp)
		if err != nil {
			return nil, err
		}
		evals := make([]Evaluator, len(n.Items))
		for i, it := range n.Items {
			ev, err := Compile(it.Expr, n.Child.Schema())
			if err != nil {
				return nil, err
			}
			evals[i] = ev
		}
		return &projectOp{child: child, evals: evals}, nil
	case *plan.PhysHashJoin:
		return newHashJoinOp(n, sp)
	case *plan.PhysIndexNLJoin:
		return newIndexNLJoinOp(n, sp)
	case *plan.PhysNLJoin:
		return newNLJoinOp(n, sp)
	case *plan.PhysHashAgg:
		return newHashAggOp(n, sp)
	case *plan.PhysSort:
		return newSortOp(n, sp)
	case *plan.PhysLimit:
		child, err := Build(n.Child, sp)
		if err != nil {
			return nil, err
		}
		return &limitOp{child: child, n: n.N}, nil
	case *plan.PhysValues:
		evals := make([]Evaluator, len(n.Items))
		for i, it := range n.Items {
			ev, err := Compile(it.Expr, nil)
			if err != nil {
				return nil, err
			}
			evals[i] = ev
		}
		return &valuesOp{evals: evals}, nil
	default:
		return nil, fmt.Errorf("exec: no operator for %T", p)
	}
}

// Run drains an operator, returning all rows.
//
//sqlcm:cancellable
func Run(op Operator, ctx *Ctx) ([]Row, error) {
	if err := op.Open(ctx); err != nil {
		return nil, err
	}
	defer op.Close()
	var out []Row
	for {
		row, err := op.Next(ctx)
		if err != nil {
			return nil, err
		}
		if row == nil {
			return out, nil
		}
		out = append(out, row)
	}
}

// ---------------------------------------------------------------------------
// Scan
// ---------------------------------------------------------------------------

type scanOp struct {
	store  *TableStore
	access *access
	cur    *Cursor
}

func newScanOp(ts *TableStore, ap *plan.AccessPath, schema []plan.ColMeta) (*scanOp, error) {
	a, err := compileAccess(ap, schema)
	if err != nil {
		return nil, err
	}
	return &scanOp{store: ts, access: a}, nil
}

func (s *scanOp) Open(ctx *Ctx) (err error) {
	s.cur, err = s.store.open(ctx.Snapshot(), s.access, ctx.Params)
	return err
}

//sqlcm:cancellable
func (s *scanOp) Next(ctx *Ctx) (Row, error) {
	for {
		_, row, err := s.cur.Next(ctx)
		if err != nil || row == nil {
			return nil, err
		}
		if s.access.residual != nil {
			ok, err := expr.EvalBool(s.access.residual, Env{Row: row, Params: ctx.Params})
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		return row, nil
	}
}

func (s *scanOp) Close() error { return nil }

// ---------------------------------------------------------------------------
// Filter / Project / Limit / Values
// ---------------------------------------------------------------------------

type filterOp struct {
	child Operator
	pred  Evaluator
}

func (f *filterOp) Open(ctx *Ctx) error { return f.child.Open(ctx) }

func (f *filterOp) Next(ctx *Ctx) (Row, error) {
	for {
		row, err := f.child.Next(ctx)
		if err != nil || row == nil {
			return nil, err
		}
		ok, err := expr.EvalBool(f.pred, Env{Row: row, Params: ctx.Params})
		if err != nil {
			return nil, err
		}
		if ok {
			return row, nil
		}
	}
}

func (f *filterOp) Close() error { return f.child.Close() }

type projectOp struct {
	child Operator
	evals []Evaluator
}

func (p *projectOp) Open(ctx *Ctx) error { return p.child.Open(ctx) }

func (p *projectOp) Next(ctx *Ctx) (Row, error) {
	row, err := p.child.Next(ctx)
	if err != nil || row == nil {
		return nil, err
	}
	out := make(Row, len(p.evals))
	for i, ev := range p.evals {
		v, err := ev.Eval(Env{Row: row, Params: ctx.Params})
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func (p *projectOp) Close() error { return p.child.Close() }

type limitOp struct {
	child Operator
	n     int64
	seen  int64
}

func (l *limitOp) Open(ctx *Ctx) error {
	l.seen = 0
	return l.child.Open(ctx)
}

func (l *limitOp) Next(ctx *Ctx) (Row, error) {
	if l.seen >= l.n {
		return nil, nil
	}
	row, err := l.child.Next(ctx)
	if err != nil || row == nil {
		return nil, err
	}
	l.seen++
	return row, nil
}

func (l *limitOp) Close() error { return l.child.Close() }

type valuesOp struct {
	evals []Evaluator
	done  bool
}

func (v *valuesOp) Open(ctx *Ctx) error {
	v.done = false
	return nil
}

func (v *valuesOp) Next(ctx *Ctx) (Row, error) {
	if v.done {
		return nil, nil
	}
	v.done = true
	out := make(Row, len(v.evals))
	for i, ev := range v.evals {
		val, err := ev.Eval(Env{Params: ctx.Params})
		if err != nil {
			return nil, err
		}
		out[i] = val
	}
	return out, nil
}

func (v *valuesOp) Close() error { return nil }

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

type hashJoinOp struct {
	left, right Operator
	leftKeys    []Evaluator
	rightKeys   []Evaluator
	residual    Evaluator

	table   map[string][]Row
	current []Row // pending matches for the current left row
	curIdx  int
	leftRow Row
}

func newHashJoinOp(n *plan.PhysHashJoin, sp StoreProvider) (Operator, error) {
	left, err := Build(n.Left, sp)
	if err != nil {
		return nil, err
	}
	right, err := Build(n.Right, sp)
	if err != nil {
		return nil, err
	}
	op := &hashJoinOp{left: left, right: right}
	for _, k := range n.LeftKeys {
		ev, err := Compile(k, n.Left.Schema())
		if err != nil {
			return nil, err
		}
		op.leftKeys = append(op.leftKeys, ev)
	}
	for _, k := range n.RightKeys {
		ev, err := Compile(k, n.Right.Schema())
		if err != nil {
			return nil, err
		}
		op.rightKeys = append(op.rightKeys, ev)
	}
	if n.Residual != nil {
		ev, err := Compile(n.Residual, n.Schema())
		if err != nil {
			return nil, err
		}
		op.residual = ev
	}
	return op, nil
}

func (j *hashJoinOp) Open(ctx *Ctx) error {
	if err := j.left.Open(ctx); err != nil {
		return err
	}
	if err := j.right.Open(ctx); err != nil {
		return err
	}
	j.table = make(map[string][]Row)
	j.current, j.leftRow = nil, nil
	j.curIdx = 0
	for {
		row, err := j.right.Next(ctx)
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		key, null, err := evalKey(j.rightKeys, row, ctx.Params)
		if err != nil {
			return err
		}
		if null {
			continue // NULL keys never join
		}
		j.table[key] = append(j.table[key], row)
	}
	return nil
}

func evalKey(evals []Evaluator, row Row, params map[string]sqltypes.Value) (string, bool, error) {
	vals := make([]sqltypes.Value, len(evals))
	for i, ev := range evals {
		v, err := ev.Eval(Env{Row: row, Params: params})
		if err != nil {
			return "", false, err
		}
		if v.IsNull() {
			return "", true, nil
		}
		vals[i] = normalizeKeyValue(v)
	}
	return string(sqltypes.EncodeKey(vals...)), false, nil
}

// normalizeKeyValue folds numerics so INT 3 and FLOAT 3.0 produce the same
// join/group key, matching Compare semantics.
func normalizeKeyValue(v sqltypes.Value) sqltypes.Value {
	switch v.Kind() {
	case sqltypes.KindBool:
		return sqltypes.NewInt(v.Int())
	case sqltypes.KindFloat:
		if f := v.Float(); f == float64(int64(f)) {
			return sqltypes.NewInt(int64(f))
		}
	}
	return v
}

func (j *hashJoinOp) Next(ctx *Ctx) (Row, error) {
	for {
		for j.curIdx < len(j.current) {
			rightRow := j.current[j.curIdx]
			j.curIdx++
			joined := append(append(Row{}, j.leftRow...), rightRow...)
			if j.residual != nil {
				ok, err := expr.EvalBool(j.residual, Env{Row: joined, Params: ctx.Params})
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			return joined, nil
		}
		row, err := j.left.Next(ctx)
		if err != nil || row == nil {
			return nil, err
		}
		key, null, err := evalKey(j.leftKeys, row, ctx.Params)
		if err != nil {
			return nil, err
		}
		if null {
			continue
		}
		j.leftRow = row
		j.current = j.table[key]
		j.curIdx = 0
	}
}

func (j *hashJoinOp) Close() error {
	j.table = nil
	err1 := j.left.Close()
	err2 := j.right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

type indexNLJoinOp struct {
	outer    Operator
	store    *TableStore
	probe    *access // equality on the index, evaluated against the outer row
	residual Evaluator

	cur      *Cursor // re-seeked per outer row
	outerRow Row
	matches  []Row
	matchIdx int
}

func newIndexNLJoinOp(n *plan.PhysIndexNLJoin, sp StoreProvider) (Operator, error) {
	outer, err := Build(n.Outer, sp)
	if err != nil {
		return nil, err
	}
	ts, err := sp.Store(n.Table.Name)
	if err != nil {
		return nil, err
	}
	op := &indexNLJoinOp{outer: outer, store: ts, probe: &access{index: n.Index}}
	for _, p := range n.ProbeExprs {
		ev, err := Compile(p, n.Outer.Schema())
		if err != nil {
			return nil, err
		}
		op.probe.eq = append(op.probe.eq, ev)
	}
	if n.Residual != nil {
		ev, err := Compile(n.Residual, n.Schema())
		if err != nil {
			return nil, err
		}
		op.residual = ev
	}
	return op, nil
}

func (j *indexNLJoinOp) Open(ctx *Ctx) error {
	j.outerRow, j.matches = nil, nil
	j.matchIdx = 0
	j.cur = &Cursor{ts: j.store, snap: ctx.Snapshot(), index: j.probe.index}
	return j.outer.Open(ctx)
}

func (j *indexNLJoinOp) Next(ctx *Ctx) (Row, error) {
	for {
		for j.matchIdx < len(j.matches) {
			inner := j.matches[j.matchIdx]
			j.matchIdx++
			joined := append(append(Row{}, j.outerRow...), inner...)
			if j.residual != nil {
				ok, err := expr.EvalBool(j.residual, Env{Row: joined, Params: ctx.Params})
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			return joined, nil
		}
		row, err := j.outer.Next(ctx)
		if err != nil || row == nil {
			return nil, err
		}
		r, null, err := j.probe.keyRange(row, ctx.Params)
		if err != nil {
			return nil, err
		}
		if null {
			continue
		}
		if err := j.cur.seek(r); err != nil {
			return nil, err
		}
		j.matches = j.matches[:0]
		j.matchIdx = 0
		for {
			_, inner, err := j.cur.Next(ctx)
			if err != nil {
				return nil, err
			}
			if inner == nil {
				break
			}
			j.matches = append(j.matches, inner)
		}
		j.outerRow = row
	}
}

func (j *indexNLJoinOp) Close() error { return j.outer.Close() }

type nlJoinOp struct {
	left, right Operator
	on          Evaluator

	inner    []Row
	innerIdx int
	leftRow  Row
}

func newNLJoinOp(n *plan.PhysNLJoin, sp StoreProvider) (Operator, error) {
	left, err := Build(n.Left, sp)
	if err != nil {
		return nil, err
	}
	right, err := Build(n.Right, sp)
	if err != nil {
		return nil, err
	}
	op := &nlJoinOp{left: left, right: right}
	if n.On != nil {
		ev, err := Compile(n.On, n.Schema())
		if err != nil {
			return nil, err
		}
		op.on = ev
	}
	return op, nil
}

func (j *nlJoinOp) Open(ctx *Ctx) error {
	if err := j.left.Open(ctx); err != nil {
		return err
	}
	if err := j.right.Open(ctx); err != nil {
		return err
	}
	j.inner = nil
	for {
		row, err := j.right.Next(ctx)
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		j.inner = append(j.inner, row)
	}
	j.innerIdx = 0
	j.leftRow = nil
	return nil
}

func (j *nlJoinOp) Next(ctx *Ctx) (Row, error) {
	for {
		if j.leftRow == nil {
			row, err := j.left.Next(ctx)
			if err != nil || row == nil {
				return nil, err
			}
			j.leftRow = row
			j.innerIdx = 0
		}
		for j.innerIdx < len(j.inner) {
			if err := ctx.checkCancel(); err != nil {
				return nil, err
			}
			inner := j.inner[j.innerIdx]
			j.innerIdx++
			joined := append(append(Row{}, j.leftRow...), inner...)
			if j.on != nil {
				ok, err := expr.EvalBool(j.on, Env{Row: joined, Params: ctx.Params})
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			return joined, nil
		}
		j.leftRow = nil
	}
}

func (j *nlJoinOp) Close() error {
	err1 := j.left.Close()
	err2 := j.right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

type aggState struct {
	count     int64
	sum       float64
	sumSq     float64
	numeric   int64
	min       sqltypes.Value
	max       sqltypes.Value
	hasMinMax bool
}

type hashAggOp struct {
	child    Operator
	groupBys []Evaluator
	aggArgs  []Evaluator // nil for COUNT(*)
	aggNames []string
	having   Evaluator

	out    []Row
	outIdx int
}

func newHashAggOp(n *plan.PhysHashAgg, sp StoreProvider) (Operator, error) {
	child, err := Build(n.Child, sp)
	if err != nil {
		return nil, err
	}
	op := &hashAggOp{child: child}
	childSchema := n.Child.Schema()
	for _, g := range n.GroupBy {
		ev, err := Compile(g, childSchema)
		if err != nil {
			return nil, err
		}
		op.groupBys = append(op.groupBys, ev)
	}
	for _, ag := range n.Aggs {
		op.aggNames = append(op.aggNames, ag.Func.Name)
		if ag.Func.Star {
			op.aggArgs = append(op.aggArgs, nil)
			continue
		}
		if len(ag.Func.Args) != 1 {
			return nil, fmt.Errorf("exec: aggregate %s takes exactly one argument", ag.Func.Name)
		}
		ev, err := Compile(ag.Func.Args[0], childSchema)
		if err != nil {
			return nil, err
		}
		op.aggArgs = append(op.aggArgs, ev)
	}
	if n.Having != nil {
		ev, err := Compile(n.Having, n.Schema())
		if err != nil {
			return nil, err
		}
		op.having = ev
	}
	return op, nil
}

func (a *hashAggOp) Open(ctx *Ctx) error {
	if err := a.child.Open(ctx); err != nil {
		return err
	}
	type group struct {
		vals   []sqltypes.Value
		states []aggState
	}
	groups := map[string]*group{}
	var order []string
	for {
		row, err := a.child.Next(ctx)
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		vals := make([]sqltypes.Value, len(a.groupBys))
		keyVals := make([]sqltypes.Value, len(a.groupBys))
		for i, ev := range a.groupBys {
			v, err := ev.Eval(Env{Row: row, Params: ctx.Params})
			if err != nil {
				return err
			}
			vals[i] = v
			keyVals[i] = normalizeKeyValue(v)
		}
		key := string(sqltypes.EncodeKey(keyVals...))
		g := groups[key]
		if g == nil {
			g = &group{vals: vals, states: make([]aggState, len(a.aggArgs))}
			groups[key] = g
			order = append(order, key)
		}
		for i, argEv := range a.aggArgs {
			st := &g.states[i]
			if argEv == nil { // COUNT(*)
				st.count++
				continue
			}
			v, err := argEv.Eval(Env{Row: row, Params: ctx.Params})
			if err != nil {
				return err
			}
			if v.IsNull() {
				continue // SQL aggregates skip NULLs (except COUNT(*))
			}
			st.count++
			if f, ok := v.AsFloat(); ok {
				st.sum += f
				st.sumSq += f * f
				st.numeric++
			}
			if !st.hasMinMax {
				st.min, st.max = v, v
				st.hasMinMax = true
			} else {
				if sqltypes.Compare(v, st.min) < 0 {
					st.min = v
				}
				if sqltypes.Compare(v, st.max) > 0 {
					st.max = v
				}
			}
		}
	}
	// Grand aggregate with no groups still yields one row.
	if len(a.groupBys) == 0 && len(groups) == 0 {
		groups[""] = &group{states: make([]aggState, len(a.aggArgs))}
		order = append(order, "")
	}
	a.out = a.out[:0]
	for _, key := range order {
		g := groups[key]
		row := make(Row, 0, len(g.vals)+len(g.states))
		row = append(row, g.vals...)
		for i, st := range g.states {
			row = append(row, finishAgg(a.aggNames[i], st))
		}
		if a.having != nil {
			ok, err := expr.EvalBool(a.having, Env{Row: row, Params: ctx.Params})
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
		}
		a.out = append(a.out, row)
	}
	a.outIdx = 0
	return nil
}

func finishAgg(name string, st aggState) sqltypes.Value {
	switch name {
	case "COUNT":
		return sqltypes.NewInt(st.count)
	case "SUM":
		if st.numeric == 0 {
			return sqltypes.Null
		}
		return sqltypes.NewFloat(st.sum)
	case "AVG":
		if st.numeric == 0 {
			return sqltypes.Null
		}
		return sqltypes.NewFloat(st.sum / float64(st.numeric))
	case "STDEV":
		if st.numeric < 2 {
			return sqltypes.Null
		}
		n := float64(st.numeric)
		variance := (st.sumSq - st.sum*st.sum/n) / (n - 1)
		if variance < 0 {
			variance = 0
		}
		return sqltypes.NewFloat(math.Sqrt(variance))
	case "MIN":
		if !st.hasMinMax {
			return sqltypes.Null
		}
		return st.min
	case "MAX":
		if !st.hasMinMax {
			return sqltypes.Null
		}
		return st.max
	default:
		return sqltypes.Null
	}
}

func (a *hashAggOp) Next(ctx *Ctx) (Row, error) {
	if a.outIdx >= len(a.out) {
		return nil, nil
	}
	row := a.out[a.outIdx]
	a.outIdx++
	return row, nil
}

func (a *hashAggOp) Close() error { return a.child.Close() }

// ---------------------------------------------------------------------------
// Sort
// ---------------------------------------------------------------------------

type sortOp struct {
	child Operator
	evals []Evaluator
	descs []bool

	rows   []Row
	rowIdx int
}

func newSortOp(n *plan.PhysSort, sp StoreProvider) (Operator, error) {
	child, err := Build(n.Child, sp)
	if err != nil {
		return nil, err
	}
	op := &sortOp{child: child}
	for _, it := range n.Items {
		ev, err := Compile(it.Expr, n.Child.Schema())
		if err != nil {
			return nil, err
		}
		op.evals = append(op.evals, ev)
		op.descs = append(op.descs, it.Desc)
	}
	return op, nil
}

func (s *sortOp) Open(ctx *Ctx) error {
	if err := s.child.Open(ctx); err != nil {
		return err
	}
	s.rows = s.rows[:0]
	type keyed struct {
		row  Row
		keys []sqltypes.Value
	}
	var items []keyed
	for {
		row, err := s.child.Next(ctx)
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		keys := make([]sqltypes.Value, len(s.evals))
		for i, ev := range s.evals {
			v, err := ev.Eval(Env{Row: row, Params: ctx.Params})
			if err != nil {
				return err
			}
			keys[i] = v
		}
		items = append(items, keyed{row: row, keys: keys})
	}
	sort.SliceStable(items, func(i, j int) bool {
		for k := range s.evals {
			c := sqltypes.Compare(items[i].keys[k], items[j].keys[k])
			if c == 0 {
				continue
			}
			if s.descs[k] {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	for _, it := range items {
		s.rows = append(s.rows, it.row)
	}
	s.rowIdx = 0
	return nil
}

func (s *sortOp) Next(ctx *Ctx) (Row, error) {
	if s.rowIdx >= len(s.rows) {
		return nil, nil
	}
	row := s.rows[s.rowIdx]
	s.rowIdx++
	return row, nil
}

func (s *sortOp) Close() error { return s.child.Close() }
