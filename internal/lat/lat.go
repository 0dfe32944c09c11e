// Package lat implements SQLCM's light-weight aggregation tables (LATs,
// §4.3 of the paper): in-memory GROUP BY containers over monitored-object
// attributes with
//
//   - grouping columns and aggregation columns (COUNT, SUM, AVG, MIN, MAX,
//     STDEV, FIRST, LAST) plus aging (moving-window, block-based) variants,
//   - ordering columns with a bounded size (rows or bytes) and
//     least-important-first eviction backed by a heap,
//   - latch-based concurrency (one latch per table), and
//   - snapshot/persist support.
package lat

import (
	"container/heap"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

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

// AggFuncFromName parses an aggregation function name, in any case: the
// rule language writes them in lower case, SQL in upper.
func AggFuncFromName(name string) (AggFunc, error) {
	for f := Count; f <= Last; f++ {
		if strings.EqualFold(name, f.String()) {
			return f, nil
		}
	}
	return Count, fmt.Errorf("unknown aggregate %q", name)
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
// heap on the ordering columns, behind one latch, which every operation
// takes, counters included; attribute getters run before it is taken and
// eviction callbacks after it is released, so no caller code runs under
// it. The heap is maintained only when the spec carries a size limit.
type Table struct {
	spec Spec
	// Clock is injectable for deterministic aging tests.
	clock func() time.Time
	// bounded is true when the spec has MaxRows or MaxBytes, aging when
	// it has an aging aggregate; columns are the output columns,
	// orderCols the positions of the ordering ones, attrs what an insert
	// reads (Attrs). All immutable.
	bounded   bool
	aging     bool
	columns   []string
	orderCols []int
	attrs     []string

	// mu is the table latch: group hash, eviction heap, free list, the
	// counters and all row state. A plain mutex: inserts, which write,
	// outnumber lookups, and a reader/writer latch's write side costs two
	// more atomic operations on a line every session shares.
	//sqlcm:lock lat.table
	//sqlcm:guards groups, order, free, mem, nGroups, inserts, newGroups, evictions
	mu     sync.Mutex
	groups map[string]*row
	order  rowHeap
	// free pools evicted rows for reuse (§6.1: "evicted leafs can be
	// re-used for the newly inserted value, keeping memory fragmentation
	// low").
	free []*row

	mem, nGroups                  int64
	inserts, newGroups, evictions int64

	onEvict atomic.Pointer[func(EvictedRow)]
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
	t.attrs = append(t.attrs, spec.GroupBy...)
	for _, a := range spec.Aggs {
		t.attrs = append(t.attrs, a.Attr)
		t.aging = t.aging || a.Aging
	}
	return t, nil
}

// SetClock injects a time source; aging windows and eviction ordering
// then run against it (tests, and the simulation harness's virtual clock).
func (t *Table) SetClock(fn func() time.Time) { t.clock = fn }

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
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return int(t.nGroups)
}

// Stats returns a snapshot of counters.
func (t *Table) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return Stats{
		Inserts:    t.inserts,
		NewGroups:  t.newGroups,
		Evictions:  t.evictions,
		MemBytes:   t.mem,
		GroupCount: int(t.nGroups),
	}
}

// Instant is the clock reading one monitored event shares among the LATs
// it touches: the first table with an aging aggregate to need the time
// reads its clock, and every later insert and lookup of the event reuses
// that reading. A table without aging aggregates never reads a clock. The
// zero Instant is unread; tables that share one should share a clock.
type Instant struct {
	at   time.Time
	read bool
}

// now returns the event's time for t, reading t's clock on first need.
func (t *Table) now(in *Instant) time.Time {
	if !t.aging {
		return time.Time{}
	}
	if !in.read {
		in.at, in.read = t.clock(), true
	}
	return in.at
}

// Attrs returns the attributes an insert reads, in the order InsertValues
// takes their values: the grouping attributes, then each aggregation
// column's source attribute ("" for COUNT(*)). Callers must not modify
// it.
func (t *Table) Attrs() []string { return t.attrs }

// Insert folds one monitored object into the table: the object is assigned
// to its group (creating it if needed), every aggregation column is
// updated, and the size limit enforced (paper action Insert(LATName)).
// Getters are caller code: every attribute is fetched before the latch is
// taken.
func (t *Table) Insert(get AttrGetter) error {
	var buf [8]sqltypes.Value // keeps the usual spec's values off the heap
	var abuf [8]bool
	vals, absent := buf[:], abuf[:]
	if n := len(t.attrs); n > len(buf) {
		vals, absent = make([]sqltypes.Value, n), make([]bool, n)
	}
	for i, attr := range t.attrs {
		if attr != "" {
			var ok bool
			vals[i], ok = get(attr)
			absent[i] = !ok
		}
	}
	var in Instant
	return t.InsertValues(&in, vals[:len(t.attrs)], absent[:len(t.attrs)])
}

// InsertValues is Insert over values the caller has already read:
// vals[i] is the object's value of Attrs()[i], and absent[i] marks an
// attribute the object lacks. An aggregate whose
// source is absent is left alone; an absent grouping attribute is an
// error. Aging aggregates read the time from in.
func (t *Table) InsertValues(in *Instant, vals []sqltypes.Value, absent []bool) error {
	ng := len(t.spec.GroupBy)
	for i := 0; i < ng; i++ {
		if absent[i] {
			t.mu.Lock()
			t.inserts++
			t.mu.Unlock()
			return fmt.Errorf("lat %s: object has no attribute %q", t.spec.Name, t.attrs[i])
		}
	}
	now := t.now(in)
	var kb [64]byte
	key := sqltypes.AppendKey(kb[:0], vals[:ng]...)

	t.mu.Lock()
	t.inserts++
	r := t.groups[string(key)]
	fresh := r == nil
	if fresh {
		r = t.takeRowLocked(vals[:ng])
	}
	var grew int64
	for i := range t.spec.Aggs {
		if absent[ng+i] {
			continue
		}
		v := vals[ng+i]
		if t.spec.Aggs[i].Attr == "" {
			v = StarArg
		}
		grew += r.aggs[i].add(&t.spec, &t.spec.Aggs[i], v, now)
	}
	if fresh && t.rejectsLocked(r, now) {
		// The new group would be the first row evicted: count it exactly
		// as its insert and eviction, and leave the map and heap alone.
		t.newGroups++
		t.evictions++
		var evicted []EvictedRow
		if t.onEvict.Load() != nil {
			evicted = []EvictedRow{t.evictedLocked(r, now)}
		}
		t.releaseRowLocked(r)
		t.mu.Unlock()
		t.deliverEvictions(evicted)
		return nil
	}
	if fresh {
		t.addGroupLocked(r, key)
	}
	evicted := t.updatedLocked(r, grew, now)
	t.mu.Unlock()
	t.deliverEvictions(evicted)
	return nil
}

// rejectsLocked reports whether a new group r, its aggregates folded, is
// one a full MaxRows-only table would evict the moment it entered: its
// ordering key is strictly less important than the heap root's. On a tie
// the root goes, as it would after a push and a pop, so r is not
// rejected. r.orderKey is set either way.
//
//sqlcm:lock-held lat.table
func (t *Table) rejectsLocked(r *row, now time.Time) bool {
	if t.spec.MaxBytes > 0 || t.spec.MaxRows == 0 || len(t.order.rows) != t.spec.MaxRows {
		return false
	}
	t.setOrderKeyLocked(r, now)
	return t.order.evictsBefore(r.orderKey, t.order.rows[0].orderKey)
}

// groupLocked returns the row of the group with the given encoded key,
// creating it with empty aggregates.
//
//sqlcm:lock-held lat.table
func (t *Table) groupLocked(key []byte, groupVals []sqltypes.Value) *row {
	if r := t.groups[string(key)]; r != nil {
		return r
	}
	r := t.takeRowLocked(groupVals)
	t.addGroupLocked(r, key)
	return r
}

// takeRowLocked returns a row — from the free list when possible — holding
// groupVals and empty aggregates, outside the group map and the heap.
//
//sqlcm:lock-held lat.table
func (t *Table) takeRowLocked(groupVals []sqltypes.Value) *row {
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
	r.groupVal = append(r.groupVal[:0], groupVals...)
	clear(r.aggs)
	r.heapIdx = -1 // updatedLocked enters the heap
	// memSize of a row whose aggregates are all empty:
	r.mem = 64 + int64(len(r.aggs))*emptyAggMem
	for _, v := range groupVals {
		r.mem += int64(v.MemSize())
	}
	return r
}

// addGroupLocked enters a row from takeRowLocked into the group map under
// key and counts it.
//
//sqlcm:lock-held lat.table
func (t *Table) addGroupLocked(r *row, key []byte) {
	r.key = string(key)
	t.mem += r.mem
	t.groups[r.key] = r
	t.nGroups++
	t.newGroups++
}

// releaseRowLocked returns a row that left the table to the free list
// (§6.1: "evicted leafs can be re-used for the newly inserted value,
// keeping memory fragmentation low").
//
//sqlcm:lock-held lat.table
func (t *Table) releaseRowLocked(r *row) {
	if len(t.free) < maxFree {
		t.free = append(t.free, r)
	}
}

// updatedLocked accounts a row whose footprint grew by grew bytes and, for
// a bounded table, (re)positions it in the heap and enforces the limits.
// The evicted snapshots it returns are delivered after the latch is
// released.
//
//sqlcm:lock-held lat.table
func (t *Table) updatedLocked(r *row, grew int64, now time.Time) []EvictedRow {
	r.mem += grew
	t.mem += grew
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
			t.spec.MaxBytes > 0 && t.mem > t.spec.MaxBytes) {
		victim := heap.Pop(&t.order).(*row)
		delete(t.groups, victim.key)
		t.mem -= victim.mem
		t.nGroups--
		t.evictions++
		if fn != nil {
			out = append(out, t.evictedLocked(victim, now))
		}
		t.releaseRowLocked(victim)
	}
	return out
}

// evictedLocked snapshots a row leaving the table for the eviction
// callback.
//
//sqlcm:lock-held lat.table
func (t *Table) evictedLocked(r *row, now time.Time) EvictedRow {
	return EvictedRow{Table: t.spec.Name, Columns: t.columns, Values: t.rowValuesLocked(r, now)}
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
// aggs).
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
	key, ok := t.groupKey(kb[:0], get)
	if !ok {
		return nil, false
	}
	return t.lookupRow(key)
}

func (t *Table) lookupRow(key []byte) ([]sqltypes.Value, bool) {
	now := t.now(&Instant{})
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.groups[string(key)]
	if r == nil {
		return nil, false
	}
	return t.rowValuesLocked(r, now), true
}

// groupKey appends to dst the encoded group key of the object behind get;
// false if it lacks a grouping attribute.
func (t *Table) groupKey(dst []byte, get AttrGetter) ([]byte, bool) {
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
// group with the given grouping values and whether the group exists. Aging
// aggregates read the time from in.
func (t *Table) LookupColumn(in *Instant, group []sqltypes.Value, col int) (sqltypes.Value, bool) {
	var kb [64]byte
	key := sqltypes.AppendKey(kb[:0], group...)
	now := t.now(in)
	t.mu.Lock()
	defer t.mu.Unlock()
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
	now := t.now(&Instant{})
	t.mu.Lock()
	out := make([][]sqltypes.Value, 0, len(t.groups))
	for _, r := range t.groups {
		out = append(out, t.rowValuesLocked(r, now))
	}
	t.mu.Unlock()
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
	t.mem, t.nGroups = 0, 0
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
	return h.evictsBefore(h.rows[i].orderKey, h.rows[j].orderKey)
}

// evictsBefore reports whether a row with ordering values a is strictly
// less important than one with b.
func (h *rowHeap) evictsBefore(a, b []sqltypes.Value) bool {
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
