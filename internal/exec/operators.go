package exec

import (
	"fmt"
	"slices"
	"sort"

	"sqlcm/internal/catalog"
	"sqlcm/internal/expr"
	"sqlcm/internal/lat"
	"sqlcm/internal/lock"
	"sqlcm/internal/plan"
	"sqlcm/internal/sqltypes"
	"sqlcm/internal/storage"
	"sqlcm/internal/txn"
)

// Ctx carries per-execution state through the operator tree.
type Ctx struct {
	Txn    *txn.Txn
	Params map[string]sqltypes.Value
	// Lits are the statement's normalized literals (sqlparser.Template).
	Lits []sqltypes.Value

	// RowsExamined counts base-table rows touched (a probe source for the
	// monitor).
	RowsExamined int64
	// MaxChain tracks the longest version-chain walk the statement
	// performed (the Version_Chain_Length probe).
	MaxChain int

	// Locks is where a row-locked write (Write.RowLocked) takes the X lock
	// of each row it is about to read, tagged with LockTag. A caller that
	// runs writes one at a time (this package's tests) leaves it nil.
	Locks   *lock.Manager
	LockTag any
}

// env is what the statement's expressions read at row.
func (c *Ctx) env(row Row) Env { return Env{Row: row, Params: c.Params, Lits: c.Lits} }

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
// collection): valid for a row while its transaction holds the row's X
// lock or the table's.
func (c *Ctx) Current() storage.Snapshot {
	if c.Txn == nil {
		return storage.CurrentSnapshot(0)
	}
	return storage.CurrentSnapshot(int64(c.Txn.ID))
}

// lockRow takes the X lock of the row at rid of ts for the statement's
// transaction, waiting behind the row's writer if it has one.
func (c *Ctx) lockRow(ts *TableStore, rid storage.RID) error {
	return c.Locks.AcquireTagged(c.Txn.ID, lock.RowResource(ts.Meta.Name, rid), lock.Exclusive, c.LockTag)
}

// checkCancel polls the transaction's cancellation flag.
func (c *Ctx) checkCancel() error {
	if c.Txn == nil {
		return nil
	}
	return c.Txn.CheckCancelled()
}

// Operator is a Volcano-style iterator. A tree is reusable: the engine
// keeps built trees per cached plan and runs one again after Close.
type Operator interface {
	// Open prepares the operator for iteration, resetting every piece of
	// per-run state.
	Open(ctx *Ctx) error
	// Next returns the next row, or nil at end of input. Every
	// implementation polls the transaction's cancellation flag at its
	// iteration boundary, so a loop draining an operator is cancellable
	// by construction.
	Next(ctx *Ctx) (Row, error)
	// Close releases resources and drops every reference to rows, so a
	// tree kept for reuse pins no memory. Close is idempotent.
	Close() error
}

// Build compiles a physical plan into an operator tree. DML plans are not
// handled here (see dml.go). Every column of the root's output is read.
func Build(p plan.Physical, sp StoreProvider) (Operator, error) {
	return build(p, sp, nil, false)
}

// build compiles p for a parent that reads the columns of p's output
// marked in read (nil: all of them). Each operator compiles its own
// expressions first, marking the columns they read in the mask it passes
// to its child, so a scan decodes only the columns some operator above it
// reads (Cursor.read). copies reports that the parent copies what it
// reads from a row before asking for the next: then a scan may decode
// every row into one buffer (Cursor.reuse). The masks are the build's
// own: an operator may mark in the one it is given, and a scan keeps it.
func build(p plan.Physical, sp StoreProvider, read []bool, copies bool) (Operator, error) {
	switch n := p.(type) {
	case *plan.PhysScan:
		ts, err := sp.Store(n.Table.Name)
		if err != nil {
			return nil, err
		}
		return newScanOp(ts, n.Access, n.Schema(), read, copies)
	case *plan.PhysFilter:
		pred, err := compileReading(n.Pred, n.Child.Schema(), read)
		if err != nil {
			return nil, err
		}
		child, err := build(n.Child, sp, read, copies)
		if err != nil {
			return nil, err
		}
		return &filterOp{child: child, pred: pred}, nil
	case *plan.PhysProject:
		schema := n.Child.Schema()
		childRead := make([]bool, len(schema))
		evals := make([]Evaluator, len(n.Items))
		for i, it := range n.Items {
			ev, err := compileReading(it.Expr, schema, childRead)
			if err != nil {
				return nil, err
			}
			evals[i] = ev
		}
		child, err := build(n.Child, sp, childRead, true)
		if err != nil {
			return nil, err
		}
		return &projectOp{child: child, evals: evals}, nil
	case *plan.PhysHashJoin:
		return newHashJoinOp(n, sp, read)
	case *plan.PhysIndexNLJoin:
		return newIndexNLJoinOp(n, sp, read)
	case *plan.PhysNLJoin:
		return newNLJoinOp(n, sp, read)
	case *plan.PhysHashAgg:
		return newHashAggOp(n, sp)
	case *plan.PhysSort:
		return newSortOp(n, sp, read)
	case *plan.PhysLimit:
		child, err := build(n.Child, sp, read, copies)
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

// readColumns is the decode mask of a cursor whose reader reads the
// table columns marked in read (nil: all) and that re-encodes the key of
// ix (nil: none) to find stale index entries: read itself, with the key's
// columns marked, or nil when every column is read.
func readColumns(read []bool, ix *catalog.Index) []bool {
	if read == nil {
		return nil
	}
	if ix != nil {
		for _, ord := range ix.Columns {
			read[ord] = true
		}
	}
	if !slices.Contains(read, false) {
		return nil
	}
	return read
}

// Run drains an operator, returning all rows. When op is a projection, the
// result starts with room for the rows it expects: an ad-hoc range SELECT
// (BenchmarkAdhocRange) makes 11 allocations instead of 14.
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
		if p, ok := op.(*projectOp); ok && out == nil {
			out = make([]Row, 0, p.rowsHint())
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
	cur    Cursor
}

// newScanOp compiles a scan whose reader reads the columns marked in read
// (nil: all) and, when copies is set, copies them out of each row.
func newScanOp(ts *TableStore, ap *plan.AccessPath, schema []plan.ColMeta, read []bool, copies bool) (*scanOp, error) {
	a, err := compileAccess(ap, schema, read)
	if err != nil {
		return nil, err
	}
	s := &scanOp{store: ts, access: a}
	s.cur.read, s.cur.reuse = readColumns(read, ap.Index), copies
	return s, nil
}

func (s *scanOp) Open(ctx *Ctx) error {
	return s.cur.open(s.store, ctx.Snapshot(), s.access, ctx)
}

func (s *scanOp) Next(ctx *Ctx) (Row, error) {
	for {
		_, row, err := s.cur.Next(ctx)
		if err != nil || row == nil {
			return nil, err
		}
		if s.access.residual != nil {
			ok, err := expr.EvalBool(s.access.residual, ctx.env(row))
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

func (s *scanOp) Close() error {
	s.cur.close()
	return nil
}

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
		ok, err := expr.EvalBool(f.pred, ctx.env(row))
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
	// slab holds the values this execution has not handed out yet, and
	// slabRows the rows the last slab had room for. The rows handed out
	// escape to the caller (Result.Rows), so a slab is never reused: an
	// execution starts one with room for the rows it expects (rowsHint),
	// and doubles it when that runs out, up to maxRowsHint rows, so the
	// room a result leaves unused is at most one slab.
	slab     Row
	slabRows int
	// rows counts the rows of this execution, last those of the last.
	rows, last int
}

func (p *projectOp) Open(ctx *Ctx) error {
	p.slab, p.slabRows, p.rows = nil, 0, 0
	return p.child.Open(ctx)
}

// rowsHint is the rows the last execution returned and half as many
// again, the executions of one template returning alike, not equal,
// numbers of rows; at most maxRowsHint, so that an execution after a
// large one does not allocate its room whole.
func (p *projectOp) rowsHint() int { return min(p.last+p.last/2+1, maxRowsHint) }

// maxRowsHint bounds the rows a projection makes room for before it sees
// them and the rows of one slab; past it, the result grows by doubling.
const maxRowsHint = 256

func (p *projectOp) Next(ctx *Ctx) (Row, error) {
	row, err := p.child.Next(ctx)
	if err != nil || row == nil {
		return nil, err
	}
	n := len(p.evals)
	if len(p.slab) < n {
		p.slabRows = min(max(p.rowsHint(), 2*p.slabRows), maxRowsHint)
		p.slab = make(Row, p.slabRows*n)
	}
	out := p.slab[:n:n]
	p.slab = p.slab[n:]
	p.rows++
	for i, ev := range p.evals {
		v, err := ev.Eval(ctx.env(row))
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func (p *projectOp) Close() error {
	p.slab, p.last = nil, p.rows
	return p.child.Close()
}

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
		val, err := ev.Eval(ctx.env(nil))
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

// newHashJoinOp compiles a hash join whose parent reads the output
// columns marked in read (nil: all). The joined row copies the probe row,
// which the join holds only while it emits that row's matches; the build
// rows stay in the table.
func newHashJoinOp(n *plan.PhysHashJoin, sp StoreProvider, read []bool) (Operator, error) {
	ls, rs := n.Left.Schema(), n.Right.Schema()
	leftRead, rightRead := subMask(read, 0, len(ls)), subMask(read, len(ls), len(ls)+len(rs))
	op := &hashJoinOp{}
	for _, k := range n.LeftKeys {
		ev, err := compileReading(k, ls, leftRead)
		if err != nil {
			return nil, err
		}
		op.leftKeys = append(op.leftKeys, ev)
	}
	for _, k := range n.RightKeys {
		ev, err := compileReading(k, rs, rightRead)
		if err != nil {
			return nil, err
		}
		op.rightKeys = append(op.rightKeys, ev)
	}
	if n.Residual != nil {
		ev, err := compileReading(n.Residual, n.Schema(), read)
		if err != nil {
			return nil, err
		}
		op.residual = ev
	}
	var err error
	if op.left, err = build(n.Left, sp, leftRead, true); err != nil {
		return nil, err
	}
	if op.right, err = build(n.Right, sp, rightRead, false); err != nil {
		return nil, err
	}
	return op, nil
}

// subMask is read[from:to], the mask of one side of a join's output, or
// nil when read is nil.
func subMask(read []bool, from, to int) []bool {
	if read == nil {
		return nil
	}
	return read[from:to:to]
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
		key, null, err := evalKey(j.rightKeys, ctx.env(row))
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

func evalKey(evals []Evaluator, env Env) (string, bool, error) {
	vals := make([]sqltypes.Value, len(evals))
	for i, ev := range evals {
		v, err := ev.Eval(env)
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
		if i, ok := sqltypes.IntOf(v.Float()); ok {
			return sqltypes.NewInt(i)
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
				ok, err := expr.EvalBool(j.residual, ctx.env(joined))
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
		key, null, err := evalKey(j.leftKeys, ctx.env(row))
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
	j.table, j.current, j.leftRow = nil, nil, nil
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

	cur      Cursor // re-seeked per outer row
	outerRow Row
	matches  []Row
	matchIdx int
}

// newIndexNLJoinOp compiles an index nested-loop join whose parent reads
// the output columns marked in read (nil: all). The joined row copies the
// outer row, held while its matches are emitted; the matches are held
// until then too, so the inner cursor decodes each into a row of its own.
func newIndexNLJoinOp(n *plan.PhysIndexNLJoin, sp StoreProvider, read []bool) (Operator, error) {
	ts, err := sp.Store(n.Table.Name)
	if err != nil {
		return nil, err
	}
	outerSchema, width := n.Outer.Schema(), len(n.Table.Columns)
	outerRead := subMask(read, 0, len(outerSchema))
	op := &indexNLJoinOp{store: ts, probe: &access{index: n.Index}}
	for _, p := range n.ProbeExprs {
		ev, err := compileReading(p, outerSchema, outerRead)
		if err != nil {
			return nil, err
		}
		op.probe.eq = append(op.probe.eq, ev)
	}
	if n.Residual != nil {
		ev, err := compileReading(n.Residual, n.Schema(), read)
		if err != nil {
			return nil, err
		}
		op.residual = ev
	}
	op.cur.read = readColumns(subMask(read, len(outerSchema), len(outerSchema)+width), n.Index)
	if op.outer, err = build(n.Outer, sp, outerRead, true); err != nil {
		return nil, err
	}
	return op, nil
}

func (j *indexNLJoinOp) Open(ctx *Ctx) error {
	j.outerRow, j.matches, j.matchIdx = nil, j.matches[:0], 0
	j.cur.reset(j.store, ctx.Snapshot(), j.probe.index)
	return j.outer.Open(ctx)
}

func (j *indexNLJoinOp) Next(ctx *Ctx) (Row, error) {
	for {
		for j.matchIdx < len(j.matches) {
			inner := j.matches[j.matchIdx]
			j.matchIdx++
			joined := append(append(Row{}, j.outerRow...), inner...)
			if j.residual != nil {
				ok, err := expr.EvalBool(j.residual, ctx.env(joined))
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
		r, empty, err := j.probe.keyRange(ctx.env(row), j.store.Meta.Columns, &j.cur.bounds)
		if err != nil {
			return nil, err
		}
		if empty {
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

func (j *indexNLJoinOp) Close() error {
	clear(j.matches)
	j.cur.close()
	j.outerRow, j.matches = nil, j.matches[:0]
	return j.outer.Close()
}

type nlJoinOp struct {
	left, right Operator
	on          Evaluator

	inner    []Row
	innerIdx int
	leftRow  Row
}

// newNLJoinOp compiles a nested-loop join whose parent reads the output
// columns marked in read (nil: all): the left row is copied into each
// joined row, the right rows are materialized.
func newNLJoinOp(n *plan.PhysNLJoin, sp StoreProvider, read []bool) (Operator, error) {
	ls, rs := n.Left.Schema(), n.Right.Schema()
	op := &nlJoinOp{}
	if n.On != nil {
		ev, err := compileReading(n.On, n.Schema(), read)
		if err != nil {
			return nil, err
		}
		op.on = ev
	}
	var err error
	if op.left, err = build(n.Left, sp, subMask(read, 0, len(ls)), true); err != nil {
		return nil, err
	}
	if op.right, err = build(n.Right, sp, subMask(read, len(ls), len(ls)+len(rs)), false); err != nil {
		return nil, err
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
				ok, err := expr.EvalBool(j.on, ctx.env(joined))
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
	j.inner, j.leftRow = nil, nil
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

// hashAggOp groups its input and folds each group's aggregates with
// lat.Accumulator, the fold LAT columns use, so SQL over persisted LAT rows
// aggregates exactly as the LAT did.
type hashAggOp struct {
	child    Operator
	groupBys []Evaluator
	aggArgs  []Evaluator // nil for COUNT(*)
	aggFuncs []lat.AggFunc
	having   Evaluator

	out    []Row
	outIdx int
}

// newHashAggOp compiles a grouping, which reads its input's group keys
// and aggregate arguments and copies their values.
func newHashAggOp(n *plan.PhysHashAgg, sp StoreProvider) (Operator, error) {
	op := &hashAggOp{}
	childSchema := n.Child.Schema()
	childRead := make([]bool, len(childSchema))
	for _, g := range n.GroupBy {
		ev, err := compileReading(g, childSchema, childRead)
		if err != nil {
			return nil, err
		}
		op.groupBys = append(op.groupBys, ev)
	}
	for _, ag := range n.Aggs {
		fn, err := lat.AggFuncFromName(ag.Func.Name)
		if err != nil {
			return nil, fmt.Errorf("exec: %v", err)
		}
		op.aggFuncs = append(op.aggFuncs, fn)
		if ag.Func.Star {
			op.aggArgs = append(op.aggArgs, nil)
			continue
		}
		if len(ag.Func.Args) != 1 {
			return nil, fmt.Errorf("exec: aggregate %s takes exactly one argument", ag.Func.Name)
		}
		ev, err := compileReading(ag.Func.Args[0], childSchema, childRead)
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
	var err error
	if op.child, err = build(n.Child, sp, childRead, true); err != nil {
		return nil, err
	}
	return op, nil
}

func (a *hashAggOp) Open(ctx *Ctx) error {
	if err := a.child.Open(ctx); err != nil {
		return err
	}
	type group struct {
		vals []sqltypes.Value
		accs []lat.Accumulator
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
			v, err := ev.Eval(ctx.env(row))
			if err != nil {
				return err
			}
			vals[i] = v
			keyVals[i] = normalizeKeyValue(v)
		}
		key := string(sqltypes.EncodeKey(keyVals...))
		g := groups[key]
		if g == nil {
			g = &group{vals: vals, accs: make([]lat.Accumulator, len(a.aggArgs))}
			groups[key] = g
			order = append(order, key)
		}
		for i, argEv := range a.aggArgs {
			v := lat.StarArg
			if argEv != nil {
				if v, err = argEv.Eval(ctx.env(row)); err != nil {
					return err
				}
			}
			g.accs[i].Add(v)
		}
	}
	// Grand aggregate with no groups still yields one row.
	if len(a.groupBys) == 0 && len(groups) == 0 {
		groups[""] = &group{accs: make([]lat.Accumulator, len(a.aggArgs))}
		order = append(order, "")
	}
	for _, key := range order {
		g := groups[key]
		row := make(Row, 0, len(g.vals)+len(g.accs))
		row = append(row, g.vals...)
		for i := range g.accs {
			row = append(row, g.accs[i].Value(a.aggFuncs[i]))
		}
		if a.having != nil {
			ok, err := expr.EvalBool(a.having, ctx.env(row))
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

func (a *hashAggOp) Next(ctx *Ctx) (Row, error) {
	if a.outIdx >= len(a.out) {
		return nil, nil
	}
	row := a.out[a.outIdx]
	a.outIdx++
	return row, nil
}

func (a *hashAggOp) Close() error {
	a.out = nil
	return a.child.Close()
}

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

// newSortOp compiles a sort whose parent reads the columns marked in read
// (nil: all); it holds its input's rows.
func newSortOp(n *plan.PhysSort, sp StoreProvider, read []bool) (Operator, error) {
	op := &sortOp{}
	for _, it := range n.Items {
		ev, err := compileReading(it.Expr, n.Child.Schema(), read)
		if err != nil {
			return nil, err
		}
		op.evals = append(op.evals, ev)
		op.descs = append(op.descs, it.Desc)
	}
	var err error
	if op.child, err = build(n.Child, sp, read, false); err != nil {
		return nil, err
	}
	return op, nil
}

func (s *sortOp) Open(ctx *Ctx) error {
	if err := s.child.Open(ctx); err != nil {
		return err
	}
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
			v, err := ev.Eval(ctx.env(row))
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

func (s *sortOp) Close() error {
	s.rows = nil
	return s.child.Close()
}
