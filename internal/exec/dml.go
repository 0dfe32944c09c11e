package exec

import (
	"bytes"
	"fmt"

	"sqlcm/internal/catalog"
	"sqlcm/internal/expr"
	"sqlcm/internal/index"
	"sqlcm/internal/plan"
	"sqlcm/internal/sqltypes"
	"sqlcm/internal/storage"
)

// DML execution. Statement errors leave the transaction's undo log with the
// inverse of every row change applied so far; the engine responds to a DML
// error by rolling back the transaction (statement-level atomicity is
// subsumed by transaction rollback, a behaviour documented in DESIGN.md).

// ExecInsert runs an insert plan, returning the number of rows inserted.
//
//sqlcm:cancellable
func ExecInsert(ctx *Ctx, sp StoreProvider, p *plan.PhysInsert, cat *catalog.Catalog) (int64, error) {
	ts, err := sp.Store(p.Table.Name)
	if err != nil {
		return 0, err
	}
	evalsPerRow := make([][]Evaluator, len(p.RowsSrc))
	for i, row := range p.RowsSrc {
		// A multi-row INSERT can carry arbitrarily many rows: the compile
		// loop is a statement-deadline boundary just like the apply loop.
		if err := ctx.checkCancel(); err != nil {
			return 0, err
		}
		evalsPerRow[i] = make([]Evaluator, len(row))
		//sqlcm:allow bounded by one row's width
		for j, e := range row {
			ev, err := Compile(e, nil)
			if err != nil {
				return 0, err
			}
			evalsPerRow[i][j] = ev
		}
	}
	var n int64
	for _, evals := range evalsPerRow {
		if err := ctx.checkCancel(); err != nil {
			return n, err
		}
		row := make(Row, len(p.Table.Columns))
		//sqlcm:allow bounded by the table's column count
		for i := range row {
			row[i] = sqltypes.Null
		}
		//sqlcm:allow bounded by one row's width
		for j, ev := range evals {
			v, err := ev.Eval(Env{Params: ctx.Params})
			if err != nil {
				return n, err
			}
			cv, err := CoerceValue(p.Table.Columns[p.Columns[j]].Type, v)
			if err != nil {
				return n, fmt.Errorf("column %q: %w", p.Table.Columns[p.Columns[j]].Name, err)
			}
			row[p.Columns[j]] = cv
		}
		if err := InsertRow(ctx, ts, row, cat); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// InsertRow inserts one fully materialized row into a table store,
// maintaining indexes, NOT NULL constraints, statistics and the undo log.
// It is also the entry point used by the engine for programmatic inserts
// (e.g. persisting LATs).
func InsertRow(ctx *Ctx, ts *TableStore, row Row, cat *catalog.Catalog) error {
	meta := ts.Meta
	if len(row) != len(meta.Columns) {
		return fmt.Errorf("exec: row width %d != %d columns of %q", len(row), len(meta.Columns), meta.Name)
	}
	for i, col := range meta.Columns {
		if col.NotNull && row[i].IsNull() {
			return fmt.Errorf("exec: NULL in NOT NULL column %q of %q", col.Name, meta.Name)
		}
	}
	rec := EncodeRow(row)
	rid := ts.Vers.NewRID()
	// Maintain indexes; unwind on unique violation.
	indexes := ts.Indexes()
	var done []*catalog.Index
	for _, ix := range meta.Indexes() {
		bt := indexes[ix.Name]
		if bt == nil {
			continue
		}
		if err := insertEntry(ctx, ts, bt, ts.IndexKey(ix, row), rid); err != nil {
			for _, u := range done {
				indexes[u.Name].Delete(ts.IndexKey(u, row), rid)
			}
			return fmt.Errorf("exec: %s on %q: %w", ix.Name, meta.Name, err)
		}
		done = append(done, ix)
	}
	// The chain makes the row readable: install it last so no reader
	// resolves the row before its entries exist. Uncommitted inserts are
	// invisible to every other snapshot until the commit stamp.
	if ctx.Txn != nil {
		v := ts.Vers.Install(rid, rec, int64(ctx.Txn.ID), false)
		ctx.Txn.OnCommit(v.SetCommit)
	} else {
		ts.Vers.Install(rid, rec, 0, true)
	}
	if cat != nil {
		cat.AddRows(meta.Name, 1)
	}
	if ctx.Txn != nil {
		rowCopy := row.Clone()
		ctx.Txn.OnRollback(func() error {
			ts.Vers.Discard(rid)
			for _, ix := range meta.Indexes() {
				if bt := ts.Indexes()[ix.Name]; bt != nil {
					bt.Delete(ts.IndexKey(ix, rowCopy), rid)
				}
			}
			if cat != nil {
				cat.AddRows(meta.Name, -1)
			}
			return nil
		})
	}
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

// collectTargets materializes the (rid, row) pairs matched by an access
// path, read in the writer's current view. DML collects all targets before
// mutating so the scan never observes its own writes (Halloween
// protection).
//
//sqlcm:cancellable
func collectTargets(ctx *Ctx, ts *TableStore, ap *plan.AccessPath, schema []plan.ColMeta) ([]targetRow, error) {
	a, err := compileAccess(ap, schema)
	if err != nil {
		return nil, err
	}
	cur, err := ts.open(ctx.Current(), a, ctx.Params)
	if err != nil {
		return nil, err
	}
	var out []targetRow
	for {
		rid, row, err := cur.Next(ctx)
		if err != nil || row == nil {
			return out, err
		}
		if a.residual != nil {
			ok, err := expr.EvalBool(a.residual, Env{Row: row, Params: ctx.Params})
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

// ExecUpdate runs an update plan, returning the number of rows changed.
//
//sqlcm:cancellable
func ExecUpdate(ctx *Ctx, sp StoreProvider, p *plan.PhysUpdate) (int64, error) {
	ts, err := sp.Store(p.Table.Name)
	if err != nil {
		return 0, err
	}
	schema := make([]plan.ColMeta, len(ts.Meta.Columns))
	//sqlcm:allow bounded by the table's column count
	for i, c := range ts.Meta.Columns {
		schema[i] = plan.ColMeta{Qual: ts.Meta.Name, Name: c.Name}
	}
	targets, err := collectTargets(ctx, ts, p.Access, schema)
	if err != nil {
		return 0, err
	}
	setEvals := make([]Evaluator, len(p.Sets))
	//sqlcm:allow bounded by the statement's SET list
	for i, s := range p.Sets {
		ev, err := Compile(s.Expr, schema)
		if err != nil {
			return 0, err
		}
		setEvals[i] = ev
	}
	var n int64
	for _, tgt := range targets {
		if err := ctx.checkCancel(); err != nil {
			return n, err
		}
		newRow := tgt.row.Clone()
		//sqlcm:allow bounded by the statement's SET list
		for i, s := range p.Sets {
			v, err := setEvals[i].Eval(Env{Row: tgt.row, Params: ctx.Params})
			if err != nil {
				return n, err
			}
			cv, err := CoerceValue(ts.Meta.Columns[s.Column].Type, v)
			if err != nil {
				return n, fmt.Errorf("column %q: %w", ts.Meta.Columns[s.Column].Name, err)
			}
			if ts.Meta.Columns[s.Column].NotNull && cv.IsNull() {
				return n, fmt.Errorf("exec: NULL in NOT NULL column %q", ts.Meta.Columns[s.Column].Name)
			}
			newRow[s.Column] = cv
		}
		if err := updateRow(ctx, ts, tgt.rid, tgt.row, newRow); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// ixDelta records the index work one versioned update applied for one
// index, so unique-violation unwind and transaction rollback revert it
// exactly.
type ixDelta struct {
	ix       *catalog.Index
	oldKey   []byte
	newKey   []byte
	inserted bool // a fresh entry (newKey, rid) went into the index
	// canceled, when non-nil, is the deferred removal canceled because
	// newKey returned to the row (its entry was still physically present).
	canceled *storage.Pending
}

// revertIndexDeltas undoes deltas in reverse: drops the deferred oldKey
// removals this update registered, removes entries it inserted, and
// re-registers removals it canceled.
func revertIndexDeltas(ts *TableStore, rid storage.RID, deltas []ixDelta) {
	for i := len(deltas) - 1; i >= 0; i-- {
		d := deltas[i]
		ts.Vers.TakePending(rid, d.ix.Name, d.oldKey)
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
	v := ts.Vers.Push(rid, EncodeRow(newRow), txnID)
	if ctx.Txn != nil {
		ctx.Txn.OnCommit(v.SetCommit)
	} else {
		v.SetCommit(storage.BaseCommitTS)
	}

	indexes := ts.Indexes()
	var deltas []ixDelta
	for _, ix := range ts.Meta.Indexes() {
		bt := indexes[ix.Name]
		if bt == nil {
			continue
		}
		oldKey := ts.IndexKey(ix, oldRow)
		newKey := ts.IndexKey(ix, newRow)
		if bytes.Equal(oldKey, newKey) {
			continue
		}
		d := ixDelta{ix: ix, oldKey: oldKey, newKey: newKey}
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
		ctx.Txn.OnRollback(func() error {
			revertIndexDeltas(ts, rid, deltas)
			ts.Vers.Pop(rid)
			return nil
		})
	}
	return nil
}

// ExecDelete runs a delete plan, returning the number of rows removed.
//
//sqlcm:cancellable
func ExecDelete(ctx *Ctx, sp StoreProvider, p *plan.PhysDelete, cat *catalog.Catalog) (int64, error) {
	ts, err := sp.Store(p.Table.Name)
	if err != nil {
		return 0, err
	}
	schema := make([]plan.ColMeta, len(ts.Meta.Columns))
	//sqlcm:allow bounded by the table's column count
	for i, c := range ts.Meta.Columns {
		schema[i] = plan.ColMeta{Qual: ts.Meta.Name, Name: c.Name}
	}
	targets, err := collectTargets(ctx, ts, p.Access, schema)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, tgt := range targets {
		if err := ctx.checkCancel(); err != nil {
			return n, err
		}
		if err := DeleteRow(ctx, ts, tgt.rid, tgt.row, cat); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// DeleteRow removes one row, maintaining statistics and undo. The delete is
// logical: a tombstone version goes onto the chain, the chain and its index
// entries stay for older snapshots, and every index entry is
// registered for deferred removal once the tombstone's commit passes the
// version-garbage watermark.
func DeleteRow(ctx *Ctx, ts *TableStore, rid storage.RID, row Row, cat *catalog.Catalog) error {
	var txnID int64
	if ctx.Txn != nil {
		txnID = int64(ctx.Txn.ID)
	}
	v := ts.Vers.Tombstone(rid, txnID)
	if ctx.Txn != nil {
		ctx.Txn.OnCommit(v.SetCommit)
	} else {
		v.SetCommit(storage.BaseCommitTS)
	}
	indexes := ts.Indexes()
	for _, ix := range ts.Meta.Indexes() {
		if indexes[ix.Name] == nil {
			continue
		}
		ts.Vers.AddPending(rid, ix.Name, ts.IndexKey(ix, row), v)
	}
	if cat != nil {
		cat.AddRows(ts.Meta.Name, -1)
	}
	if ctx.Txn != nil {
		rowCopy := row.Clone()
		ctx.Txn.OnRollback(func() error {
			indexes := ts.Indexes()
			for _, ix := range ts.Meta.Indexes() {
				if indexes[ix.Name] == nil {
					continue
				}
				ts.Vers.TakePending(rid, ix.Name, ts.IndexKey(ix, rowCopy))
			}
			ts.Vers.Pop(rid)
			if cat != nil {
				cat.AddRows(ts.Meta.Name, 1)
			}
			return nil
		})
	}
	return nil
}
