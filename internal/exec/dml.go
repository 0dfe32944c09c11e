package exec

import (
	"bytes"
	"fmt"

	"sqlcm/internal/catalog"
	"sqlcm/internal/expr"
	"sqlcm/internal/index"
	"sqlcm/internal/lock"
	"sqlcm/internal/plan"
	"sqlcm/internal/sqltypes"
	"sqlcm/internal/storage"
	"sqlcm/internal/txn"
)

// DML execution. Statement errors leave the transaction's write log with a
// record of every row change applied so far; the engine responds to a DML
// error by rolling back the transaction (statement-level atomicity is
// subsumed by transaction rollback, a behaviour documented in DESIGN.md).
// Each row change registers one txn.Write, which a TableStore undoes.

// What a TableStore's Undo reverts (txn.Write.Op).
const (
	undoInsert uint8 = iota
	undoUpdate
	undoDelete
)

// Undo implements txn.Undoer for the rows ts's writers change: it discards
// an insert's chain and index entries, or pops an update's or a delete's
// version (with the deferred index removals registered with it).
func (ts *TableStore) Undo(self lock.TxnID, w txn.Write) error {
	switch w.Op {
	case undoInsert:
		// The record keeps no row: the undo decodes the version the insert
		// installed, still the head the transaction itself sees, for the
		// index keys only. The chain goes whatever the read finds; its
		// bytes stay readable until this transaction ends.
		cr, ok := ts.Vers.ReadAt(w.RID, storage.CurrentSnapshot(int64(self)))
		ts.Vers.Discard(w.RID)
		ts.addRows(-1)
		if !ok {
			return fmt.Errorf("exec: undo of insert into %q: row %d is not visible to its transaction", ts.Meta.Name, w.RID)
		}
		row, err := DecodeRow(nil, cr.Rec, len(ts.Meta.Columns), nil)
		if err != nil {
			return err
		}
		ts.deleteEntries(ts.Meta.Indexes(), row, w.RID)
	case undoDelete:
		ts.Vers.Pop(w.RID)
		ts.addRows(1)
	default:
		ts.Vers.Pop(w.RID)
	}
	return nil
}

// Write is a compiled INSERT, UPDATE or DELETE: its table, access path and
// evaluators, resolved once per plan and shared by every execution (none of
// it changes after CompileWrite; per-run state is in the Ctx and a cursor).
type Write struct {
	ts     *TableStore
	ins    *plan.PhysInsert
	values [][]Evaluator    // INSERT: one per listed column, per VALUES row
	access *access          // UPDATE, DELETE: the rows to change
	sets   []plan.UpdateSet // UPDATE
	setEvs []Evaluator      // UPDATE: one per SET item
	del    bool
	// rowLocked: see RowLocked.
	rowLocked bool
}

// CompileWrite compiles an insert, update or delete plan against sp's
// stores.
func CompileWrite(p plan.Physical, sp StoreProvider) (*Write, error) {
	w := &Write{}
	var table *catalog.Table
	var ap *plan.AccessPath
	switch n := p.(type) {
	case *plan.PhysInsert:
		table, w.ins = n.Table, n
	case *plan.PhysUpdate:
		table, ap, w.sets = n.Table, n.Access, n.Sets
	case *plan.PhysDelete:
		table, ap, w.del = n.Table, n.Access, true
	default:
		return nil, fmt.Errorf("exec: %T is not a write", p)
	}
	var err error
	if w.ts, err = sp.Store(table.Name); err != nil {
		return nil, err
	}
	schema := make([]plan.ColMeta, len(w.ts.Meta.Columns))
	for i, c := range w.ts.Meta.Columns {
		schema[i] = plan.ColMeta{Qual: w.ts.Meta.Name, Name: c.Name}
	}
	if ap != nil {
		if w.access, err = compileAccess(ap, schema, nil); err != nil {
			return nil, err
		}
	}
	for _, s := range w.sets {
		ev, err := Compile(s.Expr, schema)
		if err != nil {
			return nil, err
		}
		w.setEvs = append(w.setEvs, ev)
	}
	w.rowLocked = ap != nil && uniqueKeyPath(ap) && !setsIndexed(w.sets, w.ts.Meta)
	if w.ins != nil {
		w.values = make([][]Evaluator, len(w.ins.RowsSrc))
		for i, row := range w.ins.RowsSrc {
			for _, e := range row {
				ev, err := Compile(e, nil)
				if err != nil {
					return nil, err
				}
				w.values[i] = append(w.values[i], ev)
			}
		}
	}
	return w, nil
}

// uniqueKeyPath reports whether ap locates rows by equality on every
// column of a unique index: at most one row per execution.
func uniqueKeyPath(ap *plan.AccessPath) bool {
	return ap.Index != nil && ap.Index.Unique && len(ap.Eq) == len(ap.Index.Columns) && ap.Lo == nil && ap.Hi == nil
}

// setsIndexed reports whether sets assign a column of one of t's indexes.
func setsIndexed(sets []plan.UpdateSet, t *catalog.Table) bool {
	for _, ix := range t.Indexes() {
		for _, col := range ix.Columns {
			for _, s := range sets {
				if s.Column == col {
					return true
				}
			}
		}
	}
	return false
}

// Store returns the table the statement writes.
func (w *Write) Store() *TableStore { return w.ts }

// RowLocked reports whether the statement locks the rows it changes
// instead of its table: an UPDATE or DELETE located by a unique key whose
// SET list changes no indexed column. Its transaction holds IX on the
// table, and target collection takes each row's X lock (Ctx.Locks) before
// it reads the row. Every other write needs the table's X lock: an index
// insert reclaims a unique entry whose row looks dead in the current view,
// which another writer's uncommitted insert would, and a scan would lock
// row by row.
func (w *Write) RowLocked() bool { return w.rowLocked }

// Exec runs the statement, returning the number of rows it inserted,
// changed or removed.
func (w *Write) Exec(ctx *Ctx) (int64, error) {
	if w.ins != nil {
		return w.insert(ctx)
	}
	targets, err := w.collectTargets(ctx)
	if err != nil {
		return 0, err
	}
	return w.apply(ctx, targets)
}

// apply deletes or updates each collected target. It polls cancellation
// before every row, so a cancel that lands after the targets were
// collected still stops the statement before its next change.
func (w *Write) apply(ctx *Ctx, targets []targetRow) (int64, error) {
	var n int64
	for _, tgt := range targets {
		if err := ctx.checkCancel(); err != nil {
			return n, err
		}
		var err error
		if w.del {
			err = deleteRow(ctx, w.ts, tgt.rid, tgt.row)
		} else {
			err = w.update(ctx, tgt)
		}
		if err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// insert evaluates and inserts each VALUES row, built in a stack buffer:
// InsertRow keeps no reference to it.
func (w *Write) insert(ctx *Ctx) (int64, error) {
	cols, p := w.ts.Meta.Columns, w.ins
	var rb [16]sqltypes.Value
	row := Row(rb[:])
	if len(cols) > len(rb) {
		row = make(Row, len(cols))
	}
	row = row[:len(cols)]
	var n int64
	for _, evals := range w.values {
		if err := ctx.checkCancel(); err != nil {
			return n, err
		}
		clear(row) // the zero Value is NULL
		for j, ev := range evals {
			v, err := ev.Eval(ctx.env(nil))
			if err != nil {
				return n, err
			}
			cv, err := CoerceValue(cols[p.Columns[j]].Type, v)
			if err != nil {
				return n, fmt.Errorf("column %q: %w", cols[p.Columns[j]].Name, err)
			}
			row[p.Columns[j]] = cv
		}
		if err := InsertRow(ctx, w.ts, row); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// InsertRow inserts one fully materialized row into a table store,
// maintaining indexes, NOT NULL constraints, statistics and the write log.
// It keeps no reference to row. It is also the entry point used by the
// engine for programmatic inserts (e.g. persisting LATs).
func InsertRow(ctx *Ctx, ts *TableStore, row Row) error {
	meta := ts.Meta
	if len(row) != len(meta.Columns) {
		return fmt.Errorf("exec: row width %d != %d columns of %q", len(row), len(meta.Columns), meta.Name)
	}
	for i, col := range meta.Columns {
		if col.NotNull && row[i].IsNull() {
			return fmt.Errorf("exec: NULL in NOT NULL column %q of %q", col.Name, meta.Name)
		}
	}
	var buf [256]byte
	rec := AppendRow(buf[:0], row)
	rid := ts.Vers.NewRID()
	// Maintain indexes, each key built in one stack buffer (the trees copy
	// keys); a unique violation unwinds the entries made before it.
	indexes, ixs := ts.Indexes(), meta.Indexes()
	var kb [128]byte
	for i, ix := range ixs {
		bt := indexes[ix.Name]
		if bt == nil {
			continue
		}
		if err := insertEntry(ctx, ts, bt, appendIndexKey(kb[:0], ix, row), rid); err != nil {
			ts.deleteEntries(ixs[:i], row, rid)
			return fmt.Errorf("exec: %s on %q: %w", ix.Name, meta.Name, err)
		}
	}
	// The chain makes the row readable: install it last so no reader
	// resolves the row before its entries exist. Uncommitted inserts are
	// invisible to every other snapshot until the commit stamp.
	if ctx.Txn != nil {
		v := ts.Vers.Install(rid, rec, int64(ctx.Txn.ID), false)
		ctx.Txn.Wrote(txn.Write{Ver: v, By: ts, RID: rid, Op: undoInsert})
	} else {
		ts.Vers.Install(rid, rec, 0, true)
	}
	ts.addRows(1)
	return nil
}

// insertEntry adds entry (key → rid). On a unique violation it reclaims the
// conflicting entry when that entry's row is dead (deleted but retained for
// older snapshots) and retries once — the dead row then ceases to be
// findable through this index, a documented limitation of deferred index
// cleanup.
func insertEntry(ctx *Ctx, ts *TableStore, bt *index.BTree, key []byte, rid storage.RID) error {
	err := bt.Insert(key, rid)
	if err == nil {
		return nil
	}
	ex, ok := bt.Get(key)
	if !ok {
		return err
	}
	if _, live := ts.Vers.ReadAt(ex, ctx.Current()); live {
		return err
	}
	bt.Delete(key, ex)
	return bt.Insert(key, rid)
}

// targetRow is a row located for update/delete.
type targetRow struct {
	rid storage.RID
	row Row
}

// collectTargets materializes the (rid, row) pairs the access path
// matches, read in the writer's current view. DML collects all targets
// before mutating so the scan never observes its own writes (Halloween
// protection). A row-locked write locks each entry's row before the
// cursor reads it: no other writer then has an uncommitted version on the
// chain, and the current view is the newest commit.
func (w *Write) collectTargets(ctx *Ctx) ([]targetRow, error) {
	var cur Cursor
	if err := cur.open(w.ts, ctx.Current(), w.access, ctx); err != nil {
		return nil, err
	}
	cur.lockRows = w.rowLocked && ctx.Locks != nil // nil: the caller runs no concurrent writer
	var out []targetRow
	for {
		rid, row, err := cur.Next(ctx)
		if err != nil || row == nil {
			return out, err
		}
		if w.access.residual != nil {
			ok, err := expr.EvalBool(w.access.residual, ctx.env(row))
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		out = append(out, targetRow{rid: rid, row: row})
	}
}

// update applies the SET list to one target row.
func (w *Write) update(ctx *Ctx, tgt targetRow) error {
	cols := w.ts.Meta.Columns
	newRow := tgt.row.Clone()
	for i, s := range w.sets {
		v, err := w.setEvs[i].Eval(ctx.env(tgt.row))
		if err != nil {
			return err
		}
		cv, err := CoerceValue(cols[s.Column].Type, v)
		if err != nil {
			return fmt.Errorf("column %q: %w", cols[s.Column].Name, err)
		}
		if cols[s.Column].NotNull && cv.IsNull() {
			return fmt.Errorf("exec: NULL in NOT NULL column %q", cols[s.Column].Name)
		}
		newRow[s.Column] = cv
	}
	return updateRow(ctx, w.ts, tgt.rid, tgt.row, newRow)
}

// ixDelta records the index work one versioned update applied for one
// index, so unique-violation unwind and transaction rollback revert it
// exactly.
type ixDelta struct {
	ix       *catalog.Index
	newKey   []byte
	inserted bool // a fresh entry (newKey, rid) went into the index
	// canceled, when non-nil, is the deferred removal canceled because
	// newKey returned to the row (its entry was still physically present).
	canceled *storage.Pending
}

// revertIndexDeltas undoes deltas in reverse: removes entries this update
// inserted and re-registers removals it canceled. The deferred oldKey
// removals it registered go with its version, in the Pop that follows.
func revertIndexDeltas(ts *TableStore, rid storage.RID, deltas []ixDelta) {
	for i := len(deltas) - 1; i >= 0; i-- {
		d := deltas[i]
		if d.inserted {
			if bt := ts.Indexes()[d.ix.Name]; bt != nil {
				bt.Delete(d.newKey, rid)
			}
		}
		if d.canceled != nil {
			ts.Vers.RestorePending(rid, *d.canceled)
		}
	}
}

// updateRow replaces oldRow (at rid) with newRow: push a new version
// (readers resolve through the chain) and maintain indexes — equal keys need
// no entry work, changed keys insert the new entry and defer removal of the
// old one to the garbage collector so older snapshots keep finding the row
// under its old key.
func updateRow(ctx *Ctx, ts *TableStore, rid storage.RID, oldRow, newRow Row) error {
	var txnID int64
	if ctx.Txn != nil {
		txnID = int64(ctx.Txn.ID)
	}
	var buf [256]byte
	v := ts.Vers.Push(rid, AppendRow(buf[:0], newRow), txnID)
	if ctx.Txn == nil {
		v.SetCommit(storage.BaseCommitTS)
	}

	indexes := ts.Indexes()
	var deltas []ixDelta
	var kb [128]byte
	for _, ix := range ts.Meta.Indexes() {
		bt := indexes[ix.Name]
		if bt == nil {
			continue
		}
		// Both keys go into a stack buffer; only a changed key is kept.
		keys := appendIndexKey(kb[:0], ix, oldRow)
		n := len(keys)
		keys = appendIndexKey(keys, ix, newRow)
		if bytes.Equal(keys[:n], keys[n:]) {
			continue
		}
		oldKey, newKey := bytes.Clone(keys[:n]), bytes.Clone(keys[n:])
		d := ixDelta{ix: ix, newKey: newKey}
		if p, ok := ts.Vers.TakePending(rid, ix.Name, newKey); ok {
			d.canceled = &p
		} else if err := insertEntry(ctx, ts, bt, newKey, rid); err != nil {
			// Unique violation: revert the completed index work and pop the
			// version; the caller aborts the transaction.
			revertIndexDeltas(ts, rid, deltas)
			ts.Vers.Pop(rid)
			return fmt.Errorf("exec: %s on %q: %w", ix.Name, ts.Meta.Name, err)
		} else {
			d.inserted = true
		}
		ts.Vers.AddPending(rid, ix.Name, oldKey, v)
		deltas = append(deltas, d)
	}
	if ctx.Txn != nil {
		w := txn.Write{Ver: v, By: ts, RID: rid, Op: undoUpdate}
		if deltas != nil {
			w.By = &keyUndo{ts: ts, deltas: deltas}
		}
		ctx.Txn.Wrote(w)
	}
	return nil
}

// keyUndo reverts an update that changed index keys: its index work, then
// its version.
type keyUndo struct {
	ts     *TableStore
	deltas []ixDelta
}

func (u *keyUndo) Undo(_ lock.TxnID, w txn.Write) error {
	revertIndexDeltas(u.ts, w.RID, u.deltas)
	u.ts.Vers.Pop(w.RID)
	return nil
}

// deleteRow removes one row, maintaining statistics and undo. The delete is
// logical: a tombstone version goes onto the chain, the chain and its index
// entries stay for older snapshots, and every index entry is
// registered for deferred removal once the tombstone's commit passes the
// version-garbage watermark.
func deleteRow(ctx *Ctx, ts *TableStore, rid storage.RID, row Row) error {
	var txnID int64
	if ctx.Txn != nil {
		txnID = int64(ctx.Txn.ID)
	}
	v := ts.Vers.Tombstone(rid, txnID)
	if ctx.Txn != nil {
		// The undo pops the tombstone and the removals registered with it:
		// the record keeps no row.
		ctx.Txn.Wrote(txn.Write{Ver: v, By: ts, RID: rid, Op: undoDelete})
	} else {
		v.SetCommit(storage.BaseCommitTS)
	}
	indexes := ts.Indexes()
	for _, ix := range ts.Meta.Indexes() {
		if indexes[ix.Name] == nil {
			continue
		}
		ts.Vers.AddPending(rid, ix.Name, appendIndexKey(nil, ix, row), v)
	}
	ts.addRows(-1)
	return nil
}
