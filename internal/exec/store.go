package exec

import (
	"bytes"
	"fmt"
	"maps"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sqlcm/internal/catalog"
	"sqlcm/internal/expr"
	"sqlcm/internal/index"
	"sqlcm/internal/plan"
	"sqlcm/internal/sqltypes"
	"sqlcm/internal/storage"
)

// TableStore binds a catalog table to its storage. Every table is
// multi-versioned: the version store holds the rows and hands out their
// RIDs, and physical deletes are deferred to PruneVersions.
type TableStore struct {
	Meta *catalog.Table
	Vers *storage.VersionStore
	// cat receives the table's row-count changes; nil: none.
	cat *catalog.Catalog

	// ixMu serializes publication of the index set (CREATE INDEX, TRUNCATE);
	// its only protected state is the copy-on-write set below.
	//sqlcm:lock exec.indexes
	//sqlcm:guards none
	ixMu sync.Mutex
	// indexes is the published index set, keyed by index name: lock-free
	// SELECT cursors load it while CREATE INDEX builds a copy and swaps it
	// in. The trees latch themselves.
	//sqlcm:cow exec.indexes
	indexes atomic.Pointer[map[string]*index.BTree]
}

// NewTableStore creates storage for a table, including B+trees for every
// index already declared in the catalog entry. cat receives the table's
// row-count changes (nil: none); stats receives the version store's
// counters (nil for a private set); lastCommit is the transaction manager's
// LastCommit, which lets the store reuse the versions it prunes
// (storage.NewVersionStore).
func NewTableStore(meta *catalog.Table, cat *catalog.Catalog, stats *storage.VersionStats, lastCommit func() int64) *TableStore {
	ts := &TableStore{Meta: meta, Vers: storage.NewVersionStore(stats, lastCommit), cat: cat}
	set := make(map[string]*index.BTree)
	for _, ix := range meta.Indexes() {
		set[ix.Name] = index.New(ix.Unique)
	}
	ts.indexes.Store(&set)
	return ts
}

// Indexes returns the published index set, keyed by index name. It is
// shared with every reader: callers must not write to it.
func (ts *TableStore) Indexes() map[string]*index.BTree { return *ts.indexes.Load() }

// publishIndexes swaps in a copy of the index set with edit applied. edit
// runs under the writer latch and must not take another.
func (ts *TableStore) publishIndexes(edit func(set map[string]*index.BTree)) {
	ts.ixMu.Lock()
	defer ts.ixMu.Unlock()
	next := maps.Clone(ts.Indexes())
	//sqlcm:allow the edits are this file's closures, which only rewrite the cloned map
	edit(next)
	ts.indexes.Store(&next)
}

// ResetIndexes replaces every index with an empty tree (TRUNCATE). The
// caller holds the table's exclusive lock.
func (ts *TableStore) ResetIndexes() {
	ts.publishIndexes(func(set map[string]*index.BTree) {
		for name, bt := range set {
			set[name] = index.New(bt.Unique())
		}
	})
}

// addRows moves the table's row count in the catalog by n.
func (ts *TableStore) addRows(n int64) {
	if ts.cat != nil {
		ts.cat.AddRows(ts.Meta.Name, n)
	}
}

// deleteEntries removes row's entries, at rid, from the trees of ixs.
func (ts *TableStore) deleteEntries(ixs []*catalog.Index, row Row, rid storage.RID) {
	indexes := ts.Indexes()
	var kb [128]byte
	for _, ix := range ixs {
		if bt := indexes[ix.Name]; bt != nil {
			bt.Delete(appendIndexKey(kb[:0], ix, row), rid)
		}
	}
}

// appendIndexKey appends the encoded key of row for the given index to dst.
func appendIndexKey(dst []byte, ix *catalog.Index, row Row) []byte {
	for _, ord := range ix.Columns {
		dst = row[ord].Encode(dst)
	}
	return dst
}

// access is a compiled plan.AccessPath: the index to walk (nil reads the
// whole table), evaluators for its key bounds, and the residual filter.
type access struct {
	index          *catalog.Index
	eq             []Evaluator
	lo, hi         Evaluator
	loIncl, hiIncl bool
	residual       Evaluator
}

// compileAccess compiles ap; the residual is compiled against schema.
func compileAccess(ap *plan.AccessPath, schema []plan.ColMeta) (*access, error) {
	a := &access{index: ap.Index, loIncl: ap.LoIncl, hiIncl: ap.HiIncl}
	var err error
	if ap.Residual != nil {
		if a.residual, err = Compile(ap.Residual, schema); err != nil {
			return nil, err
		}
	}
	if ap.Index == nil {
		return a, nil
	}
	for _, e := range ap.Eq {
		ev, err := Compile(e, nil)
		if err != nil {
			return nil, err
		}
		a.eq = append(a.eq, ev)
	}
	if ap.Lo != nil {
		if a.lo, err = Compile(ap.Lo, nil); err != nil {
			return nil, err
		}
	}
	if ap.Hi != nil {
		if a.hi, err = Compile(ap.Hi, nil); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// keyRange is an evaluated B+tree range (nil bound = open end).
type keyRange struct {
	lo, hi         []byte
	loIncl, hiIncl bool
}

// keyRange evaluates the path's index bounds: equality on a key prefix,
// optionally narrowed by a range on the next key column. cols are the
// table's columns: index keys hold their column's kind (rows pass
// CoerceValue on insert) and Encode orders values the way Compare does
// only within one kind, so each bound is converted to its column's kind
// (sqltypes.Interval.To). The bounds are encoded into *bounds, a buffer
// the caller keeps and the range aliases. env.Row feeds bounds that
// reference an outer row (index nested-loop probes) and is nil otherwise.
// empty reports a range no row can satisfy: a NULL bound, which no
// comparison matches, or bounds no key of the column's kind meets.
func (a *access) keyRange(env Env, cols []catalog.Column, bounds *[]byte) (r keyRange, empty bool, err error) {
	buf := (*bounds)[:0]
	defer func() { *bounds = buf }()
	for i, ev := range a.eq {
		v, err := ev.Eval(env)
		if err != nil {
			return r, false, err
		}
		if k := cols[a.index.Columns[i]].Type; v.Kind() != k {
			iv, ok := sqltypes.Point(v).To(k)
			v, empty = iv.Lo.Val, empty || !ok
		}
		empty = empty || v.IsNull()
		buf = v.Encode(buf)
	}
	prefix := buf[:len(buf):len(buf)]
	r = keyRange{lo: prefix, hi: prefix, loIncl: true, hiIncl: true}
	// The range on the next key column, converted to its kind.
	var iv sqltypes.Interval
	bound := func(ev Evaluator, incl bool) (sqltypes.Bound, error) {
		if ev == nil {
			return sqltypes.Bound{}, nil
		}
		v, err := ev.Eval(env)
		empty = empty || v.IsNull()
		return sqltypes.Bound{Val: v, Incl: incl}, err
	}
	if iv.Lo, err = bound(a.lo, a.loIncl); err != nil {
		return r, false, err
	}
	if iv.Hi, err = bound(a.hi, a.hiIncl); err != nil {
		return r, false, err
	}
	if a.lo != nil || a.hi != nil {
		var ok bool
		iv, ok = iv.To(cols[a.index.Columns[len(a.eq)]].Type)
		empty = empty || !ok
	}
	encode := func(v sqltypes.Value) []byte {
		start := len(buf)
		buf = v.Encode(append(buf, prefix...))
		return buf[start:len(buf):len(buf)]
	}
	switch {
	case a.lo != nil:
		r.lo, r.loIncl = encode(iv.Lo.Val), iv.Lo.Incl
	case a.hi != nil:
		// Only an upper bound: start above the keys whose column is NULL.
		start := len(buf)
		buf = prefixSuccessor(sqltypes.Null.Encode(append(buf, prefix...)), start)
		r.lo = buf[start:len(buf):len(buf)]
	}
	switch {
	case a.hi != nil:
		r.hi, r.hiIncl = encode(iv.Hi.Val), iv.Hi.Incl
	case a.lo != nil || len(a.eq) < len(a.index.Columns):
		// Open-ended range or equality on a proper key prefix: run to the
		// end of the prefix.
		start := len(buf)
		buf = prefixSuccessor(append(buf, prefix...), start)
		r.hi, r.hiIncl = buf[start:len(buf):len(buf)], false
		if len(buf) == start {
			r.hi = nil // prefix is all 0xff: no upper bound
		}
	}
	return r, empty, nil
}

// contains reports whether key lies in the range, bounds compared the way
// index.BTree.ScanRange compares them.
func (r *keyRange) contains(key []byte) bool {
	if r.lo != nil {
		if c := bytes.Compare(key, r.lo); c < 0 || (c == 0 && !r.loIncl) {
			return false
		}
	}
	if r.hi != nil {
		if c := bytes.Compare(key, r.hi); c > 0 || (c == 0 && !r.hiIncl) {
			return false
		}
	}
	return true
}

// prefixSuccessor turns b[start:], a key prefix, into the smallest byte
// string greater than every string with that prefix, in place; it is empty
// when the prefix is all 0xff.
func prefixSuccessor(b []byte, start int) []byte {
	for i := len(b) - 1; i >= start; i-- {
		if b[i] != 0xff {
			b[i]++
			return b[:i+1]
		}
	}
	return b[:start]
}

// Cursor iterates the rows of one table visible to a snapshot, along an
// index range or over the whole table. It is the only way rows are read —
// SELECT scans, join probes, DML target collection, index builds and the
// engine's direct readers differ only in the snapshot they pass (a
// transaction's read snapshot, or storage.CurrentSnapshot for a writer
// under the table's X lock or its rows' X locks).
type Cursor struct {
	ts    *TableStore
	snap  storage.Snapshot
	index *catalog.Index // nil: whole table
	// lockRows makes an index cursor take each entry's row lock before it
	// resolves the row (a row-locked write's target collection).
	lockRows bool
	// rows (whole table) are materialized at open, in RID order, which is
	// insertion order; entries (index range) are collected at open and
	// resolved one per Next, their keys copied back to back into entryKeys.
	// Only one of rows and entries is set.
	rows      []storage.ChainRow
	entries   []indexEntry
	entryKeys []byte
	pos       int
	// span, when spanned, filters rows by the index range: a snapshot older
	// than the index's build reads the whole table instead of the tree.
	span    keyRange
	spanned bool
	// bounds holds the encoded bounds of the last seek, key the index key
	// of the row Next is checking: buffers kept across seeks and opens.
	bounds, key []byte
}

// indexEntry is one index entry a cursor collected: its key ends at end in
// Cursor.entryKeys and starts where the previous entry's ends.
type indexEntry struct {
	end uint32
	rid storage.RID
}

// Scan opens a cursor over every row visible to snap.
func (ts *TableStore) Scan(snap storage.Snapshot) *Cursor {
	return &Cursor{ts: ts, snap: snap, rows: ts.Vers.SnapScan(snap)}
}

// reset points c at ts, snap and ix with nothing to read, keeping its
// buffers.
func (c *Cursor) reset(ts *TableStore, snap storage.Snapshot, ix *catalog.Index) {
	*c = Cursor{ts: ts, snap: snap, index: ix, entries: c.entries[:0], entryKeys: c.entryKeys[:0], bounds: c.bounds, key: c.key}
}

// open restarts c along a at snap; an empty range reads nothing.
func (c *Cursor) open(ts *TableStore, snap storage.Snapshot, a *access, ctx *Ctx) error {
	c.reset(ts, snap, a.index)
	if a.index == nil {
		c.rows = ts.Vers.SnapScan(snap)
		return nil
	}
	r, empty, err := a.keyRange(ctx.env(nil), ts.Meta.Columns, &c.bounds)
	if err != nil || empty {
		return err
	}
	return c.seek(r)
}

// close drops the cursor's references to rows; its buffers stay for the
// next open.
func (c *Cursor) close() {
	c.rows, c.entries, c.span = nil, c.entries[:0], keyRange{}
}

// seek restarts an index cursor on range r, reusing its entry buffers (the
// index-NL join seeks once per outer row). The keys are copied out: the
// tree's own bytes shift under a later Insert or Delete.
func (c *Cursor) seek(r keyRange) error {
	c.pos = 0
	if c.snap.TS < c.index.BuiltAt {
		// The tree holds the chain heads of its build: versions this
		// snapshot sees may be missing from it. Plans are cached across
		// snapshots, so the check is here and not in the planner.
		if c.rows == nil {
			c.rows = c.ts.Vers.SnapScan(c.snap)
		}
		c.span, c.spanned = r, true
		return nil
	}
	bt, ok := c.ts.Indexes()[c.index.Name]
	if !ok {
		return fmt.Errorf("exec: index %q has no storage", c.index.Name)
	}
	c.entries, c.entryKeys = c.entries[:0], c.entryKeys[:0]
	bt.ScanRange(r.lo, r.hi, r.loIncl, r.hiIncl, func(k []byte, rid storage.RID) bool {
		c.entryKeys = append(c.entryKeys, k...)
		c.entries = append(c.entries, indexEntry{end: uint32(len(c.entryKeys)), rid: rid})
		return true
	})
	return nil
}

// Next returns the next visible row and its RID, or a nil row
// at the end. It counts the row into ctx.RowsExamined and records the
// version-chain walk in ctx.MaxChain.
func (c *Cursor) Next(ctx *Ctx) (storage.RID, Row, error) {
	ncols := len(c.ts.Meta.Columns)
	for end := len(c.rows) + len(c.entries); c.pos < end; {
		if err := ctx.checkCancel(); err != nil {
			return 0, nil, err
		}
		var cr storage.ChainRow
		var key []byte
		visible := true
		if c.pos < len(c.rows) {
			cr = c.rows[c.pos]
		} else {
			e := c.entries[c.pos]
			if c.lockRows {
				if err := ctx.lockRow(c.ts, e.rid); err != nil {
					return 0, nil, err
				}
			}
			start := uint32(0)
			if c.pos > 0 {
				start = c.entries[c.pos-1].end
			}
			key = c.entryKeys[start:e.end]
			cr, visible = c.ts.Vers.ReadAt(e.rid, c.snap)
		}
		c.pos++
		ctx.noteDepth(cr.Depth)
		if !visible {
			// Uncommitted, newer than the snapshot, or deleted (the entry
			// is retained for older snapshots).
			continue
		}
		row, err := DecodeRow(cr.Rec, ncols)
		if err != nil {
			return 0, nil, err
		}
		if c.index != nil {
			c.key = appendIndexKey(c.key[:0], c.index, row)
		}
		switch {
		case c.spanned:
			if !c.span.contains(c.key) {
				continue
			}
		case c.index != nil && !bytes.Equal(c.key, key):
			// Stale entry: index cleanup is deferred to PruneVersions, so
			// the visible version may carry a different key; that key's own
			// entry locates the row if it qualifies.
			continue
		}
		ctx.RowsExamined++
		return cr.Rid, row, nil
	}
	return 0, nil, nil
}

// AddIndex registers a new B+tree for ix and populates it from the rows
// current to ctx's transaction. That transaction
// must hold the table's exclusive lock: then no other transaction has an
// uncommitted version on the table and the build indexes every chain head.
func (ts *TableStore) AddIndex(ctx *Ctx, ix *catalog.Index) error {
	bt := index.New(ix.Unique)
	cur := ts.Scan(ctx.Current())
	for {
		rid, row, err := cur.Next(ctx)
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		if err := bt.Insert(appendIndexKey(nil, ix, row), rid); err != nil {
			return fmt.Errorf("exec: building index %s: %w", ix.Name, err)
		}
	}
	ts.publishIndexes(func(set map[string]*index.BTree) { set[ix.Name] = bt })
	return nil
}

// PruneVersions runs one version-garbage-collection pass at the given
// watermark and deletes the stale index entries whose superseding commits
// every snapshot has passed. The caller holds a write lock on the table:
// X, or IX as a row-locked writer, read the watermark under it, and the
// pass needs no more (DESIGN.md §14). Two IX writers of one table may
// prune at once: the store hands each garbage record to one pass under
// storage.version, and each index delete runs under index.btree.
func (ts *TableStore) PruneVersions(watermark int64) {
	indexes := ts.Indexes()
	for _, p := range ts.Vers.Prune(watermark) {
		if bt := indexes[p.Index]; bt != nil {
			bt.Delete(p.Key, p.Rid)
		}
	}
}

// StoreProvider resolves table names to their stores.
type StoreProvider interface {
	Store(table string) (*TableStore, error)
}

// Registry is a thread-safe StoreProvider backed by a map.
type Registry struct {
	// mu protects the store map.
	//sqlcm:lock exec.registry
	//sqlcm:guards stores
	mu     sync.RWMutex
	stores map[string]*TableStore
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{stores: make(map[string]*TableStore)}
}

// Store implements StoreProvider.
func (r *Registry) Store(table string) (*TableStore, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ts, ok := r.stores[table]
	if !ok {
		return nil, fmt.Errorf("exec: no storage for table %q", table)
	}
	return ts, nil
}

// Names returns the registered table names in sorted order (the order
// statements lock tables in, so a sweep over every table queues behind
// writers the way a statement would).
func (r *Registry) Names() []string {
	r.mu.RLock()
	out := make([]string, 0, len(r.stores))
	for name := range r.stores {
		out = append(out, name)
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Register installs a table store.
func (r *Registry) Register(name string, ts *TableStore) {
	r.mu.Lock()
	r.stores[name] = ts
	r.mu.Unlock()
}

// Unregister removes a table store.
func (r *Registry) Unregister(name string) {
	r.mu.Lock()
	delete(r.stores, name)
	r.mu.Unlock()
}

// AppendRow appends row's self-delimiting value encoding to dst. Writers
// encode into a stack buffer: the version store copies the record into
// its arena.
func AppendRow(dst []byte, row Row) []byte {
	for _, v := range row {
		dst = v.Encode(dst)
	}
	return dst
}

// EncodeRow serializes a row into a record of exactly its length: one
// allocation for a row that fits the stack buffer.
func EncodeRow(row Row) []byte {
	var buf [256]byte
	return bytes.Clone(AppendRow(buf[:0], row))
}

// DecodeRow parses exactly ncols values from rec.
func DecodeRow(rec []byte, ncols int) (Row, error) {
	row := make(Row, 0, ncols)
	rest := rec
	for i := 0; i < ncols; i++ {
		v, r, err := sqltypes.Decode(rest)
		if err != nil {
			return nil, fmt.Errorf("exec: decoding column %d: %w", i, err)
		}
		row = append(row, v)
		rest = r
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("exec: %d trailing bytes after %d columns", len(rest), ncols)
	}
	return row, nil
}

// CoerceValue converts v to the column kind, applying the widenings the SQL
// layer permits (INT→FLOAT, BOOL→INT, INT→BOOL, string→DATETIME parse,
// integral FLOAT→INT). NULL passes through.
func CoerceValue(kind sqltypes.Kind, v sqltypes.Value) (sqltypes.Value, error) {
	if v.IsNull() || v.Kind() == kind {
		return v, nil
	}
	switch kind {
	case sqltypes.KindFloat:
		if f, ok := v.AsFloat(); ok {
			return sqltypes.NewFloat(f), nil
		}
	case sqltypes.KindInt:
		switch v.Kind() {
		case sqltypes.KindBool:
			return sqltypes.NewInt(v.Int()), nil
		case sqltypes.KindFloat:
			if i, ok := sqltypes.IntOf(v.Float()); ok {
				return sqltypes.NewInt(i), nil
			}
		}
	case sqltypes.KindBool:
		// A number is TRUE exactly when WHERE would read it as true.
		if v.IsNumeric() {
			return sqltypes.NewBool(expr.Truthy(v)), nil
		}
	case sqltypes.KindTime:
		if v.Kind() == sqltypes.KindString {
			for _, layout := range []string{
				"2006-01-02 15:04:05.000000",
				"2006-01-02 15:04:05",
				"2006-01-02",
				time.RFC3339,
			} {
				if t, err := time.Parse(layout, v.Str()); err == nil {
					return sqltypes.NewTime(t), nil
				}
			}
		}
	case sqltypes.KindString:
		// No implicit conversion to string: be strict.
	}
	return sqltypes.Null, fmt.Errorf("exec: cannot convert %s %s to %s", v.Kind(), v, kind)
}
