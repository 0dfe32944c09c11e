// Package lat implements SQLCM's light-weight aggregation tables (LATs,
// §4.3 of the paper): in-memory GROUP BY containers over monitored-object
// attributes with
//
//   - grouping columns and aggregation columns (COUNT, SUM, AVG, MIN, MAX,
//     STDEV, FIRST, LAST) plus aging (moving-window, block-based) variants,
//   - ordering columns with a bounded size (rows or bytes) and
//     least-important-first eviction backed by a heap,
//   - latch-based concurrency (one reader/writer latch per table), and
//   - snapshot/persist support.
package lat

import (
	"container/heap"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"sqlcm/internal/clock"
	"sqlcm/internal/lockcheck"
	"sqlcm/internal/sqltypes"
)

// AggFunc enumerates the aggregation functions a LAT column can compute.
type AggFunc uint8

// Aggregation functions (paper §4.3).
const (
	Count AggFunc = iota
	Sum
	Avg
	Min
	Max
	Stdev
	First
	Last
)

// String returns the SQL-ish name of the function.
func (f AggFunc) String() string {
	switch f {
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	case Avg:
		return "AVG"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	case Stdev:
		return "STDEV"
	case First:
		return "FIRST"
	case Last:
		return "LAST"
	default:
		return fmt.Sprintf("AggFunc(%d)", uint8(f))
	}
}

// AggFuncFromName parses an aggregation function name.
func AggFuncFromName(name string) (AggFunc, error) {
	switch name {
	case "COUNT":
		return Count, nil
	case "SUM":
		return Sum, nil
	case "AVG", "AVERAGE":
		return Avg, nil
	case "MIN":
		return Min, nil
	case "MAX":
		return Max, nil
	case "STDEV", "STDDEV":
		return Stdev, nil
	case "FIRST":
		return First, nil
	case "LAST":
		return Last, nil
	default:
		return Count, fmt.Errorf("lat: unknown aggregation function %q", name)
	}
}

// AggCol declares one aggregation column.
type AggCol struct {
	Func AggFunc
	Attr string // source attribute of the monitored class ("" for COUNT)
	Name string // output column name (referenced by rules as LAT.Name)
	// Aging computes the moving-window version: only values newer than the
	// table's AgingWindow contribute.
	Aging bool
}

// OrderKey is one ordering column of the LAT.
type OrderKey struct {
	Col  string // an output column (grouping or aggregation) name
	Desc bool
}

// Spec declares a LAT.
type Spec struct {
	Name    string
	GroupBy []string // attribute names; also the output grouping columns
	Aggs    []AggCol
	// OrderBy determines both row ordering and eviction priority: when the
	// size limit is exceeded, the row with the smallest ordering value
	// (i.e. the last row in the declared order) is discarded.
	OrderBy []OrderKey
	// MaxRows bounds the row count (0 = unbounded).
	MaxRows int
	// MaxBytes bounds the approximate memory footprint (0 = unbounded).
	MaxBytes int64
	// AgingWindow is t: aging aggregates ignore values older than t.
	AgingWindow time.Duration
	// AgingBlock is Δ: the granularity at which old values age out. At
	// most ceil(t/Δ)+1 blocks are retained per aging aggregate, matching
	// the paper's 2t/Δ storage bound.
	AgingBlock time.Duration
}

// validate checks internal consistency.
func (s *Spec) validate() error {
	if s.Name == "" {
		return fmt.Errorf("lat: spec needs a name")
	}
	if len(s.GroupBy) == 0 {
		return fmt.Errorf("lat %s: at least one grouping column required", s.Name)
	}
	names := map[string]bool{}
	for _, g := range s.GroupBy {
		if names[g] {
			return fmt.Errorf("lat %s: duplicate column %q", s.Name, g)
		}
		names[g] = true
	}
	hasAging := false
	for _, a := range s.Aggs {
		if a.Name == "" {
			return fmt.Errorf("lat %s: aggregation column needs a name", s.Name)
		}
		if names[a.Name] {
			return fmt.Errorf("lat %s: duplicate column %q", s.Name, a.Name)
		}
		names[a.Name] = true
		if a.Func != Count && a.Attr == "" {
			return fmt.Errorf("lat %s: %s(%s) needs a source attribute", s.Name, a.Func, a.Name)
		}
		if a.Aging {
			hasAging = true
		}
	}
	if hasAging {
		if s.AgingWindow <= 0 || s.AgingBlock <= 0 {
			return fmt.Errorf("lat %s: aging aggregates need AgingWindow and AgingBlock", s.Name)
		}
		if s.AgingBlock > s.AgingWindow {
			return fmt.Errorf("lat %s: AgingBlock must not exceed AgingWindow", s.Name)
		}
	}
	for _, o := range s.OrderBy {
		if !names[o.Col] {
			return fmt.Errorf("lat %s: ordering column %q is not an output column", s.Name, o.Col)
		}
	}
	if (s.MaxRows > 0 || s.MaxBytes > 0) && len(s.OrderBy) == 0 {
		return fmt.Errorf("lat %s: a size limit requires ordering columns (eviction priority)", s.Name)
	}
	return nil
}

// Columns returns the output column names: grouping columns then
// aggregation columns.
func (s Spec) Columns() []string {
	out := append([]string{}, s.GroupBy...)
	for _, a := range s.Aggs {
		out = append(out, a.Name)
	}
	return out
}

// AttrGetter supplies monitored-object attribute values during Insert.
type AttrGetter func(attr string) (sqltypes.Value, bool)

// Stats aggregates table counters.
type Stats struct {
	Inserts    int64
	NewGroups  int64
	Evictions  int64
	MemBytes   int64
	GroupCount int
}

// maxFree bounds the recycled-row pool.
const maxFree = 64

// Table is a live LAT: the paper's hash on the grouping columns plus a
// heap on the ordering columns, behind one latch. Insert, Restore, Reset
// and eviction take its write side, Lookup and Rows its read side;
// attribute getters run before it is taken and eviction callbacks after
// it is released, so no caller code runs under it. The heap is maintained
// only when the spec carries a size limit. The counters are atomics, so
// Len and Stats take no latch.
type Table struct {
	spec Spec
	// Clock is injectable for deterministic aging tests.
	clock func() time.Time
	// bounded is true when the spec has MaxRows or MaxBytes; columns are
	// the output columns, orderCols the positions of the ordering ones.
	// All immutable.
	bounded   bool
	columns   []string
	orderCols []int

	// mu is the table latch: group hash, eviction heap, free list and all
	// row state.
	//sqlcm:lock lat.table
	//sqlcm:guards groups, order, free
	mu     lockcheck.RWMutex
	groups map[string]*row
	order  rowHeap
	// free pools evicted rows for reuse (§6.1: "evicted leafs can be
	// re-used for the newly inserted value, keeping memory fragmentation
	// low").
	free []*row

	mem     atomic.Int64
	nGroups atomic.Int64

	onEvict atomic.Pointer[func(EvictedRow)]

	inserts   atomic.Int64
	newGroups atomic.Int64
	evictions atomic.Int64
}

// row is one group's state, all of it under the table latch.
type row struct {
	//sqlcm:guarded-by lat.table
	key string
	//sqlcm:guarded-by lat.table
	groupVal []sqltypes.Value
	//sqlcm:guarded-by lat.table
	aggs []aggState
	//sqlcm:guarded-by lat.table
	mem int64
	// heapIdx is the row's position in the eviction heap (-1: not in it).
	//sqlcm:guarded-by lat.table
	heapIdx int
	// orderKey holds the ordering-column values the heap compares,
	// rewritten in place after every update (bounded tables only).
	//sqlcm:guarded-by lat.table
	orderKey []sqltypes.Value
}

// EvictedRow is delivered to the eviction callback; the paper exposes each
// evicted row as a monitored object so rules can persist it. Columns is
// shared: receivers must not modify it.
type EvictedRow struct {
	Table   string
	Columns []string
	Values  []sqltypes.Value
}

// New creates a LAT from a spec.
func New(spec Spec) (*Table, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	t := &Table{
		spec:    spec,
		clock:   time.Now,
		bounded: spec.MaxRows > 0 || spec.MaxBytes > 0,
		columns: spec.Columns(),
		groups:  make(map[string]*row),
		order:   rowHeap{by: spec.OrderBy},
	}
	for _, o := range spec.OrderBy {
		t.orderCols = append(t.orderCols, t.ColumnIndex(o.Col))
	}
	t.mu.SetClass("lat.table")
	return t, nil
}

// SetClock injects a time source (tests).
func (t *Table) SetClock(fn func() time.Time) { t.clock = fn }

// SetClockSource injects a clock.Clock; aging windows and eviction
// ordering then run against it (the simulation harness passes a virtual
// clock here).
func (t *Table) SetClockSource(c clock.Clock) { t.clock = c.Now }

// SetOnEvict installs the eviction callback.
func (t *Table) SetOnEvict(fn func(EvictedRow)) {
	if fn == nil {
		t.onEvict.Store(nil)
		return
	}
	t.onEvict.Store(&fn)
}

// Spec returns the table's specification.
func (t *Table) Spec() Spec { return t.spec }

// Name returns the LAT name.
func (t *Table) Name() string { return t.spec.Name }

// Len returns the number of groups.
func (t *Table) Len() int { return int(t.nGroups.Load()) }

// Stats returns a snapshot of counters.
func (t *Table) Stats() Stats {
	return Stats{
		Inserts:    t.inserts.Load(),
		NewGroups:  t.newGroups.Load(),
		Evictions:  t.evictions.Load(),
		MemBytes:   t.mem.Load(),
		GroupCount: int(t.nGroups.Load()),
	}
}

// Insert folds one monitored object into the table: the object is assigned
// to its group (creating it if needed), every aggregation column is
// updated, and the size limit enforced (paper action Insert(LATName)).
func (t *Table) Insert(get AttrGetter) error {
	t.inserts.Add(1)
	now := t.clock()

	// Getters are caller code: every attribute is fetched before the latch
	// is taken. vals holds the grouping values, then one source value per
	// aggregation column.
	ng := len(t.spec.GroupBy)
	var buf [8]sqltypes.Value // keeps the usual spec's values off the heap
	vals := buf[:]
	if n := ng + len(t.spec.Aggs); n > len(buf) {
		vals = make([]sqltypes.Value, n)
	}
	for i, attr := range t.spec.GroupBy {
		v, ok := get(attr)
		if !ok {
			return fmt.Errorf("lat %s: object has no attribute %q", t.spec.Name, attr)
		}
		vals[i] = v
	}
	var absent []bool // aggregates whose source attribute the object lacks
	for i := range t.spec.Aggs {
		attr := t.spec.Aggs[i].Attr
		if attr == "" {
			continue
		}
		v, ok := get(attr)
		if !ok {
			if absent == nil {
				absent = make([]bool, len(t.spec.Aggs))
			}
			absent[i] = true
		}
		vals[ng+i] = v
	}
	var kb [64]byte
	key := sqltypes.AppendKey(kb[:0], vals[:ng]...)

	t.mu.Lock()
	r := t.groupLocked(key, vals[:ng])
	var grew int64
	for i := range t.spec.Aggs {
		if absent != nil && absent[i] {
			continue
		}
		grew += r.aggs[i].add(&t.spec, &t.spec.Aggs[i], vals[ng+i], now)
	}
	evicted := t.updatedLocked(r, grew, now)
	t.mu.Unlock()
	t.deliverEvictions(evicted)
	return nil
}

// groupLocked returns the row of the group with the given encoded key,
// creating it — from the free list when possible — with empty aggregates.
//
//sqlcm:lock-held lat.table
func (t *Table) groupLocked(key []byte, groupVals []sqltypes.Value) *row {
	if r := t.groups[string(key)]; r != nil {
		return r
	}
	var r *row
	if n := len(t.free); n > 0 {
		r = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		r = &row{
			aggs:     make([]aggState, len(t.spec.Aggs)),
			orderKey: make([]sqltypes.Value, len(t.orderCols)),
		}
	}
	r.key = string(key)
	r.groupVal = append(r.groupVal[:0], groupVals...)
	clear(r.aggs)
	r.heapIdx = -1 // updatedLocked enters the heap
	// memSize of a row whose aggregates are all empty:
	r.mem = 64 + int64(len(r.aggs))*emptyAggMem
	for _, v := range groupVals {
		r.mem += int64(v.MemSize())
	}
	t.mem.Add(r.mem)
	t.groups[r.key] = r
	t.nGroups.Add(1)
	t.newGroups.Add(1)
	return r
}

// updatedLocked accounts a row whose footprint grew by grew bytes and, for
// a bounded table, (re)positions it in the heap and enforces the limits.
// The evicted snapshots it returns are delivered after the latch is
// released.
//
//sqlcm:lock-held lat.table
func (t *Table) updatedLocked(r *row, grew int64, now time.Time) []EvictedRow {
	r.mem += grew
	t.mem.Add(grew)
	if !t.bounded {
		return nil
	}
	t.setOrderKeyLocked(r, now)
	if r.heapIdx < 0 {
		heap.Push(&t.order, r)
	} else {
		heap.Fix(&t.order, r.heapIdx)
	}
	return t.enforceLimitsLocked(now)
}

// setOrderKeyLocked rewrites the row's ordering-column values in place.
//
//sqlcm:lock-held lat.table
func (t *Table) setOrderKeyLocked(r *row, now time.Time) {
	for i, c := range t.orderCols {
		r.orderKey[i] = t.valueLocked(r, c, now)
	}
}

// valueLocked returns the value of one output column of a row.
//
//sqlcm:lock-held lat.table
func (t *Table) valueLocked(r *row, col int, now time.Time) sqltypes.Value {
	if ng := len(r.groupVal); col >= ng {
		return r.aggs[col-ng].value(&t.spec, &t.spec.Aggs[col-ng], now)
	}
	return r.groupVal[col]
}

// enforceLimitsLocked evicts least-important rows while over limits,
// returning their snapshots for deliverEvictions.
//
//sqlcm:lock-held lat.table
func (t *Table) enforceLimitsLocked(now time.Time) []EvictedRow {
	// Snapshots of evicted rows are only materialized when a callback is
	// installed (i.e. some rule listens on LATRow.Evicted).
	fn := t.onEvict.Load()
	var out []EvictedRow
	for len(t.order.rows) > 0 &&
		(t.spec.MaxRows > 0 && len(t.order.rows) > t.spec.MaxRows ||
			t.spec.MaxBytes > 0 && t.mem.Load() > t.spec.MaxBytes) {
		victim := heap.Pop(&t.order).(*row)
		delete(t.groups, victim.key)
		t.mem.Add(-victim.mem)
		t.nGroups.Add(-1)
		t.evictions.Add(1)
		if fn != nil {
			out = append(out, EvictedRow{
				Table:   t.spec.Name,
				Columns: t.columns,
				Values:  t.rowValuesLocked(victim, now),
			})
		}
		if len(t.free) < maxFree {
			t.free = append(t.free, victim)
		}
	}
	return out
}

// deliverEvictions invokes the eviction callback outside the latch.
func (t *Table) deliverEvictions(rows []EvictedRow) {
	if fn := t.onEvict.Load(); fn != nil {
		for _, r := range rows {
			(*fn)(r)
		}
	}
}

// rowValuesLocked materializes the output values of a row (group then
// aggs). It only reads, so the read side of the latch suffices.
//
//sqlcm:lock-held lat.table
func (t *Table) rowValuesLocked(r *row, now time.Time) []sqltypes.Value {
	out := make([]sqltypes.Value, 0, len(r.groupVal)+len(r.aggs))
	out = append(out, r.groupVal...)
	for i := range r.aggs {
		out = append(out, r.aggs[i].value(&t.spec, &t.spec.Aggs[i], now))
	}
	return out
}

// Lookup returns the output values of the group matching the given
// grouping-attribute values, in declared column order. The second result
// reports whether a matching row exists (rules treat a missing row as a
// false condition, §5.2).
func (t *Table) Lookup(groupVals []sqltypes.Value) ([]sqltypes.Value, bool) {
	var kb [64]byte
	return t.lookupRow(sqltypes.AppendKey(kb[:0], groupVals...))
}

// LookupByGetter resolves the grouping attributes through an object
// accessor and looks the group up.
func (t *Table) LookupByGetter(get AttrGetter) ([]sqltypes.Value, bool) {
	var kb [64]byte
	key, ok := t.GroupKey(kb[:0], get)
	if !ok {
		return nil, false
	}
	return t.lookupRow(key)
}

func (t *Table) lookupRow(key []byte) ([]sqltypes.Value, bool) {
	now := t.clock()
	t.mu.RLock()
	defer t.mu.RUnlock()
	r := t.groups[string(key)]
	if r == nil {
		return nil, false
	}
	return t.rowValuesLocked(r, now), true
}

// GroupKey appends to dst the encoded group key of the object behind get;
// false if it lacks a grouping attribute.
func (t *Table) GroupKey(dst []byte, get AttrGetter) ([]byte, bool) {
	for _, attr := range t.spec.GroupBy {
		v, ok := get(attr)
		if !ok {
			return dst, false
		}
		dst = v.Encode(dst)
	}
	return dst, true
}

// LookupColumn returns output column col (a ColumnIndex position) of the
// group with the given key (GroupKey) and whether the group exists.
func (t *Table) LookupColumn(key []byte, col int) (sqltypes.Value, bool) {
	now := t.clock()
	t.mu.RLock()
	defer t.mu.RUnlock()
	r := t.groups[string(key)]
	if r == nil {
		return sqltypes.Null, false
	}
	return t.valueLocked(r, col, now), true
}

// ColumnIndex returns the position of an output column, or -1.
func (t *Table) ColumnIndex(col string) int {
	for i, c := range t.columns {
		if c == col {
			return i
		}
	}
	return -1
}

// Rows returns a snapshot of all rows in declared order (most important
// first). Each row is the output values in column order.
func (t *Table) Rows() [][]sqltypes.Value {
	now := t.clock()
	t.mu.RLock()
	out := make([][]sqltypes.Value, 0, len(t.groups))
	for _, r := range t.groups {
		out = append(out, t.rowValuesLocked(r, now))
	}
	t.mu.RUnlock()
	// Heap order is not sorted order: sort by the spec (most important
	// first = reverse of eviction priority).
	t.sortRows(out)
	return out
}

// sortRows sorts materialized rows by the ordering spec, most important
// first; without ordering columns the order is unspecified but stable.
func (t *Table) sortRows(rows [][]sqltypes.Value) {
	if len(t.spec.OrderBy) == 0 {
		return
	}
	sort.SliceStable(rows, func(a, b int) bool {
		for i, o := range t.spec.OrderBy {
			c := sqltypes.Compare(rows[a][t.orderCols[i]], rows[b][t.orderCols[i]])
			if c == 0 {
				continue
			}
			if o.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
}

// Reset clears the table (paper action Reset(LATName)).
func (t *Table) Reset() {
	t.mu.Lock()
	t.groups = make(map[string]*row)
	t.order.rows = nil
	t.free = nil
	t.mem.Store(0)
	t.nGroups.Store(0)
	t.mu.Unlock()
}

// rowHeap is the eviction heap: the least important row at the top. Its
// methods run under the table latch, like every container/heap call on it.
type rowHeap struct {
	rows []*row
	by   []OrderKey // the spec's OrderBy
}

//sqlcm:lock-held lat.table
func (h *rowHeap) Len() int { return len(h.rows) }

// Less reports whether row i should be evicted before row j.
//
//sqlcm:lock-held lat.table
func (h *rowHeap) Less(i, j int) bool {
	a, b := h.rows[i].orderKey, h.rows[j].orderKey
	for k, o := range h.by {
		c := sqltypes.Compare(a[k], b[k])
		if c == 0 {
			continue
		}
		if o.Desc {
			return c < 0 // descending spec: smallest is least important
		}
		return c > 0 // ascending spec: largest is least important
	}
	return false
}

//sqlcm:lock-held lat.table
func (h *rowHeap) Swap(i, j int) {
	h.rows[i], h.rows[j] = h.rows[j], h.rows[i]
	h.rows[i].heapIdx = i
	h.rows[j].heapIdx = j
}

//sqlcm:lock-held lat.table
func (h *rowHeap) Push(x interface{}) {
	r := x.(*row)
	r.heapIdx = len(h.rows)
	h.rows = append(h.rows, r)
}

//sqlcm:lock-held lat.table
func (h *rowHeap) Pop() interface{} {
	n := len(h.rows) - 1
	r := h.rows[n]
	r.heapIdx = -1
	h.rows = h.rows[:n]
	return r
}

// memSize approximates the row's footprint. Inserts keep row.mem current
// from what aggState.add reports; restored rows are measured whole.
//
//sqlcm:lock-held lat.table
func (r *row) memSize() int64 {
	var n int64 = 64
	for _, v := range r.groupVal {
		n += int64(v.MemSize())
	}
	for i := range r.aggs {
		n += r.aggs[i].memSize()
	}
	return n
}
