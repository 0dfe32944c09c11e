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
// index already declared in the catalog entry. stats receives the version
// store's counters (nil for a private set).
func NewTableStore(meta *catalog.Table, stats *storage.VersionStats) *TableStore {
	ts := &TableStore{Meta: meta, Vers: storage.NewVersionStore(stats)}
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

// publishIndexes swaps in a copy of the index set with edit applied.
func (ts *TableStore) publishIndexes(edit func(set map[string]*index.BTree)) {
	ts.ixMu.Lock()
	defer ts.ixMu.Unlock()
	next := maps.Clone(ts.Indexes())
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

// IndexKey extracts the encoded key of row for the given index.
func (ts *TableStore) IndexKey(ix *catalog.Index, row Row) []byte {
	vals := make([]sqltypes.Value, len(ix.Columns))
	for i, ord := range ix.Columns {
		vals[i] = row[ord]
	}
	return sqltypes.EncodeKey(vals...)
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
// optionally narrowed by a range on the next key column. row feeds bounds
// that reference an outer row (index nested-loop probes) and is nil
// otherwise. null reports a NULL equality value, which a join probe must
// treat as matching nothing.
func (a *access) keyRange(row Row, params map[string]sqltypes.Value) (r keyRange, null bool, err error) {
	eq := make([]sqltypes.Value, len(a.eq))
	for i, ev := range a.eq {
		if eq[i], err = ev.Eval(Env{Row: row, Params: params}); err != nil {
			return r, false, err
		}
		null = null || eq[i].IsNull()
	}
	prefix := sqltypes.EncodeKey(eq...)
	r = keyRange{lo: prefix, hi: prefix, loIncl: true, hiIncl: true}
	if a.lo != nil {
		v, err := a.lo.Eval(Env{Row: row, Params: params})
		if err != nil {
			return r, false, err
		}
		r.lo, r.loIncl = v.Encode(append([]byte(nil), prefix...)), a.loIncl
	}
	switch {
	case a.hi != nil:
		v, err := a.hi.Eval(Env{Row: row, Params: params})
		if err != nil {
			return r, false, err
		}
		r.hi, r.hiIncl = v.Encode(append([]byte(nil), prefix...)), a.hiIncl
	case a.lo != nil || len(eq) < len(a.index.Columns):
		// Open-ended range or equality on a proper key prefix: run to the
		// end of the prefix.
		r.hi, r.hiIncl = prefixSuccessor(prefix), false
	}
	return r, null, nil
}

// prefixSuccessor returns the smallest byte string greater than every string
// with the given prefix.
func prefixSuccessor(prefix []byte) []byte {
	out := append([]byte(nil), prefix...)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] != 0xff {
			out[i]++
			return out[:i+1]
		}
	}
	return nil // prefix is all 0xff: no upper bound
}

// Cursor iterates the rows of one table visible to a snapshot, along an
// index range or over the whole table. It is the only way rows are read —
// SELECT scans, join probes, DML target collection, index builds and the
// engine's direct readers differ only in the snapshot they pass (a
// transaction's read snapshot, or storage.CurrentSnapshot for a writer
// under the table's exclusive lock).
type Cursor struct {
	ts    *TableStore
	snap  storage.Snapshot
	index *catalog.Index // nil: whole table
	// rows (whole table) are materialized at open, in RID order, which is
	// insertion order; entries (index range) are collected at open and
	// resolved one per Next. Only one of the two is set.
	rows    []storage.ChainRow
	entries []indexEntry
	pos     int
}

type indexEntry struct {
	key []byte
	rid storage.RID
}

// Scan opens a cursor over every row visible to snap.
func (ts *TableStore) Scan(snap storage.Snapshot) *Cursor {
	return &Cursor{ts: ts, snap: snap, rows: ts.Vers.SnapScan(snap)}
}

// open starts a cursor along a. A NULL equality bound is looked up like any
// other key.
func (ts *TableStore) open(snap storage.Snapshot, a *access, params map[string]sqltypes.Value) (*Cursor, error) {
	if a.index == nil {
		return ts.Scan(snap), nil
	}
	r, _, err := a.keyRange(nil, params)
	if err != nil {
		return nil, err
	}
	return ts.openRange(snap, a.index, r)
}

func (ts *TableStore) openRange(snap storage.Snapshot, ix *catalog.Index, r keyRange) (*Cursor, error) {
	c := &Cursor{ts: ts, snap: snap, index: ix}
	return c, c.seek(r)
}

// seek restarts an index cursor on range r, reusing its entry buffer (the
// index-NL join seeks once per outer row). Entries keep the tree's key
// slices: key bytes are never written after Insert.
func (c *Cursor) seek(r keyRange) error {
	bt, ok := c.ts.Indexes()[c.index.Name]
	if !ok {
		return fmt.Errorf("exec: index %q has no storage", c.index.Name)
	}
	c.entries, c.pos = c.entries[:0], 0
	bt.ScanRange(r.lo, r.hi, r.loIncl, r.hiIncl, func(k []byte, rid storage.RID) bool {
		c.entries = append(c.entries, indexEntry{key: k, rid: rid})
		return true
	})
	return nil
}

// Next returns the next visible row and its RID, or a nil row
// at the end. It counts the row into ctx.RowsExamined and records the
// version-chain walk in ctx.MaxChain.
//
//sqlcm:cancellable
func (c *Cursor) Next(ctx *Ctx) (storage.RID, Row, error) {
	ncols := len(c.ts.Meta.Columns)
	for end := len(c.rows) + len(c.entries); c.pos < end; {
		if err := ctx.checkCancel(); err != nil {
			return 0, nil, err
		}
		var cr storage.ChainRow
		var key []byte
		visible := true
		if c.index == nil {
			cr = c.rows[c.pos]
		} else {
			key = c.entries[c.pos].key
			cr, visible = c.ts.Vers.ReadAt(c.entries[c.pos].rid, c.snap)
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
		if c.index != nil && !bytes.Equal(c.ts.IndexKey(c.index, row), key) {
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
		if err := bt.Insert(ts.IndexKey(ix, row), rid); err != nil {
			return fmt.Errorf("exec: building index %s: %w", ix.Name, err)
		}
	}
	ts.publishIndexes(func(set map[string]*index.BTree) { set[ix.Name] = bt })
	return nil
}

// PruneVersions runs one version-garbage-collection pass at the given
// watermark and deletes the stale index entries whose superseding commits
// every snapshot has passed. The caller must hold the table's exclusive
// lock (Prune itself only takes the version store's leaf latch).
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

// EncodeRow serializes a row with the self-delimiting value encoding.
func EncodeRow(row Row) []byte {
	var out []byte
	for _, v := range row {
		out = v.Encode(out)
	}
	return out
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
			if v.Float() == float64(int64(v.Float())) {
				return sqltypes.NewInt(int64(v.Float())), nil
			}
		}
	case sqltypes.KindBool:
		if i, ok := v.AsInt(); ok {
			return sqltypes.NewBool(i != 0), nil
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
