package exec

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"sqlcm/internal/catalog"
	"sqlcm/internal/lock"
	"sqlcm/internal/plan"
	"sqlcm/internal/sqlparser"
	"sqlcm/internal/sqltypes"
	"sqlcm/internal/txn"
)

// harness is a minimal engine for exec-level tests: catalog + storage +
// transactions, no locking or monitoring. Statements read the way the
// engine's sessions do: SELECTs at their transaction's snapshot, DML in the
// writer's current view.
type harness struct {
	cat *catalog.Catalog
	reg *Registry
	tm  *txn.Manager
	t   *testing.T

	// examined is Ctx.RowsExamined of the last planned statement.
	examined int64
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	return &harness{
		cat: catalog.New(),
		reg: NewRegistry(),
		tm:  txn.NewManager(lock.NewManager(time.Second)),
		t:   t,
	}
}

func (h *harness) mustExec(sql string, params map[string]sqltypes.Value) ([]Row, int64) {
	h.t.Helper()
	rows, n, err := h.exec(sql, params)
	if err != nil {
		h.t.Fatalf("exec %q: %v", sql, err)
	}
	return rows, n
}

func (h *harness) exec(sql string, params map[string]sqltypes.Value) ([]Row, int64, error) {
	tx := h.tm.Begin(true)
	rows, n, err := h.execIn(tx, sql, params)
	if err != nil {
		h.tm.Rollback(tx) //nolint:errcheck
		return nil, 0, err
	}
	if cerr := h.tm.Commit(tx); cerr != nil {
		return nil, 0, cerr
	}
	return rows, n, err
}

func (h *harness) execIn(tx *txn.Txn, sql string, params map[string]sqltypes.Value) ([]Row, int64, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, 0, err
	}
	switch s := stmt.(type) {
	case *sqlparser.CreateTable:
		cols := make([]catalog.Column, len(s.Columns))
		for i, c := range s.Columns {
			cols[i] = catalog.Column{Name: c.Name, Type: c.Type, PrimaryKey: c.PrimaryKey, NotNull: c.NotNull}
		}
		meta, err := h.cat.CreateTable(s.Name, cols)
		if err != nil {
			return nil, 0, err
		}
		h.reg.Register(s.Name, NewTableStore(meta, h.cat, nil, h.tm.LastCommit))
		return nil, 0, nil
	case *sqlparser.CreateIndex:
		ix, err := h.cat.CreateIndex(s.Name, s.Table, s.Columns, s.Unique)
		if err != nil {
			return nil, 0, err
		}
		ts, err := h.reg.Store(s.Table)
		if err != nil {
			return nil, 0, err
		}
		return nil, 0, ts.AddIndex(&Ctx{}, ix)
	}
	p, err := h.physical(stmt)
	if err != nil {
		return nil, 0, err
	}
	ctx := &Ctx{Txn: tx, Params: params}
	defer func() { h.examined = ctx.RowsExamined }()
	switch p.(type) {
	case *plan.PhysInsert, *plan.PhysUpdate, *plan.PhysDelete:
		w, err := CompileWrite(p, h.reg)
		if err != nil {
			return nil, 0, err
		}
		n, err := w.Exec(ctx)
		return nil, n, err
	default:
		op, err := Build(p, h.reg)
		if err != nil {
			return nil, 0, err
		}
		rows, err := Run(op, ctx)
		return rows, int64(len(rows)), err
	}
}

// physical plans stmt against the harness catalog.
func (h *harness) physical(stmt sqlparser.Statement) (plan.Physical, error) {
	l, err := plan.BuildLogical(stmt, h.cat)
	if err != nil {
		return nil, err
	}
	return plan.Optimize(l, h.cat)
}

func (h *harness) setupItems() {
	h.mustExec(`CREATE TABLE items (
		id INT PRIMARY KEY,
		name VARCHAR NOT NULL,
		qty INT,
		price FLOAT
	)`, nil)
	for i := 1; i <= 100; i++ {
		h.mustExec(fmt.Sprintf(
			"INSERT INTO items VALUES (%d, 'item%02d', %d, %g)",
			i, i%10, i%7, float64(i)*1.5), nil)
	}
}

func TestInsertSelectRoundTrip(t *testing.T) {
	h := newHarness(t)
	h.setupItems()
	rows, _ := h.mustExec("SELECT id, name, qty, price FROM items WHERE id = 42", nil)
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	r := rows[0]
	if r[0].Int() != 42 || r[1].Str() != "item02" || r[2].Int() != 0 || r[3].Float() != 63 {
		t.Fatalf("row: %v", r)
	}
}

func TestSelectStarAndOrderLimit(t *testing.T) {
	h := newHarness(t)
	h.setupItems()
	rows, _ := h.mustExec("SELECT * FROM items ORDER BY price DESC LIMIT 3", nil)
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0][0].Int() != 100 || rows[1][0].Int() != 99 || rows[2][0].Int() != 98 {
		t.Fatalf("order: %v %v %v", rows[0][0], rows[1][0], rows[2][0])
	}
}

func TestWhereVariants(t *testing.T) {
	h := newHarness(t)
	h.setupItems()
	cases := []struct {
		sql  string
		want int
	}{
		{"SELECT id FROM items WHERE id <= 10", 10},
		{"SELECT id FROM items WHERE id > 90 AND id <= 95", 5},
		{"SELECT id FROM items WHERE name = 'item03'", 10},
		{"SELECT id FROM items WHERE qty = 3 OR qty = 4", 28},
		{"SELECT id FROM items WHERE NOT id <= 99", 1},
		{"SELECT id FROM items WHERE id % 2 = 0 AND id <= 10", 5},
		{"SELECT id FROM items WHERE price >= 148.5 AND price <= 150", 2},
	}
	for _, c := range cases {
		rows, _ := h.mustExec(c.sql, nil)
		if len(rows) != c.want {
			t.Errorf("%s: got %d rows, want %d", c.sql, len(rows), c.want)
		}
	}
}

func TestParams(t *testing.T) {
	h := newHarness(t)
	h.setupItems()
	rows, _ := h.mustExec("SELECT id FROM items WHERE id = @key",
		map[string]sqltypes.Value{"key": sqltypes.NewInt(7)})
	if len(rows) != 1 || rows[0][0].Int() != 7 {
		t.Fatalf("rows: %v", rows)
	}
	_, _, err := h.exec("SELECT id FROM items WHERE id = @missing", nil)
	if err == nil || !strings.Contains(err.Error(), "unbound parameter") {
		t.Fatalf("expected unbound-parameter error, got %v", err)
	}
}

func TestAggregation(t *testing.T) {
	h := newHarness(t)
	h.setupItems()
	rows, _ := h.mustExec(
		"SELECT name, COUNT(*), SUM(qty), AVG(price), MIN(id), MAX(id) FROM items GROUP BY name ORDER BY name", nil)
	if len(rows) != 10 {
		t.Fatalf("groups: %d", len(rows))
	}
	// Group 'item00' holds ids 10,20,…,100.
	r := rows[0]
	if r[0].Str() != "item00" || r[1].Int() != 10 {
		t.Fatalf("group row: %v", r)
	}
	if r[4].Int() != 10 || r[5].Int() != 100 {
		t.Fatalf("min/max: %v %v", r[4], r[5])
	}
	wantAvg := 0.0
	for i := 10; i <= 100; i += 10 {
		wantAvg += float64(i) * 1.5
	}
	wantAvg /= 10
	if got := r[3].Float(); got != wantAvg {
		t.Fatalf("avg: %v want %v", got, wantAvg)
	}
}

func TestGrandAggregateAndHaving(t *testing.T) {
	h := newHarness(t)
	h.setupItems()
	rows, _ := h.mustExec("SELECT COUNT(*) FROM items", nil)
	if len(rows) != 1 || rows[0][0].Int() != 100 {
		t.Fatalf("count: %v", rows)
	}
	rows, _ = h.mustExec(
		"SELECT qty, COUNT(*) FROM items GROUP BY qty HAVING COUNT(*) > 14", nil)
	for _, r := range rows {
		if r[1].Int() <= 14 {
			t.Fatalf("having violated: %v", r)
		}
	}
	if len(rows) != 2 { // qty 0 and 1 have 15 members (100/7)
		t.Fatalf("having groups: %d (%v)", len(rows), rows)
	}
}

func TestStdevAggregate(t *testing.T) {
	h := newHarness(t)
	h.mustExec("CREATE TABLE m (id INT PRIMARY KEY, g INT, v FLOAT)", nil)
	inputs := []struct {
		vs   []float64
		want float64
	}{
		// Sample stdev of this classic dataset = sqrt(32/7) ≈ 2.138.
		{[]float64{2, 4, 4, 4, 5, 5, 7, 9}, math.Sqrt(32.0 / 7)},
		// Exactly 1. A sum-of-squares fold returned 0: at 1e9 the
		// subtraction cancels every digit of the variance.
		{[]float64{1e9 + 1, 1e9 + 2, 1e9 + 3}, 1},
	}
	id := 0
	for g, in := range inputs {
		for _, v := range in.vs {
			h.mustExec(fmt.Sprintf("INSERT INTO m VALUES (%d, %d, %g)", id, g, v), nil)
			id++
		}
	}
	for g, in := range inputs {
		rows, _ := h.mustExec(fmt.Sprintf("SELECT STDEV(v) FROM m WHERE g = %d", g), nil)
		if got := rows[0][0].Float(); math.Abs(got-in.want) > 1e-9 {
			t.Errorf("stdev of %v = %v, want %v", in.vs, got, in.want)
		}
	}
}

func TestJoins(t *testing.T) {
	h := newHarness(t)
	h.mustExec("CREATE TABLE o (okey INT PRIMARY KEY, cust INT)", nil)
	h.mustExec("CREATE TABLE l (lid INT PRIMARY KEY, okey INT, qty INT)", nil)
	for i := 1; i <= 20; i++ {
		h.mustExec(fmt.Sprintf("INSERT INTO o VALUES (%d, %d)", i, i%5), nil)
	}
	for i := 1; i <= 60; i++ {
		h.mustExec(fmt.Sprintf("INSERT INTO l VALUES (%d, %d, %d)", i, (i%20)+1, i), nil)
	}
	// Index NL join (inner o has pk on okey).
	rows, _ := h.mustExec("SELECT l.lid, o.cust FROM l JOIN o ON l.okey = o.okey WHERE l.lid <= 10", nil)
	if len(rows) != 10 {
		t.Fatalf("indexNL rows: %d", len(rows))
	}
	// Hash join (join on non-indexed cust).
	rows, _ = h.mustExec("SELECT l.lid FROM l JOIN o ON l.okey = o.cust WHERE l.lid = 5", nil)
	// l.lid=5 has okey=6; o rows with cust=6: none (cust ranges 0..4).
	if len(rows) != 0 {
		t.Fatalf("hash join rows: %d", len(rows))
	}
	rows, _ = h.mustExec("SELECT l.lid FROM l JOIN o ON l.okey = o.cust WHERE l.lid = 4", nil)
	// l.lid=4 has okey=5; no o rows with cust=5 either... cust = i%5 ∈ 0..4.
	if len(rows) != 0 {
		t.Fatalf("hash join rows: %d", len(rows))
	}
	rows, _ = h.mustExec("SELECT l.lid, o.okey FROM l JOIN o ON l.okey = o.cust WHERE l.lid = 3", nil)
	// l.lid=3 has okey=4; o rows with cust=4: okeys 4,9,14,19.
	if len(rows) != 4 {
		t.Fatalf("hash join rows: %d (%v)", len(rows), rows)
	}
	// Non-equi join falls back to nested loop.
	rows, _ = h.mustExec("SELECT l.lid FROM l JOIN o ON l.okey < o.okey WHERE l.lid = 19", nil)
	// l.lid=19 → okey=20; o.okey > 20: none.
	if len(rows) != 0 {
		t.Fatalf("nl join rows: %d", len(rows))
	}
	rows, _ = h.mustExec("SELECT l.lid FROM l JOIN o ON l.okey > o.okey WHERE l.lid = 19", nil)
	if len(rows) != 19 {
		t.Fatalf("nl join rows: %d", len(rows))
	}
}

func TestThreeWayJoin(t *testing.T) {
	h := newHarness(t)
	h.mustExec("CREATE TABLE a (id INT PRIMARY KEY, bref INT)", nil)
	h.mustExec("CREATE TABLE b (id INT PRIMARY KEY, cref INT)", nil)
	h.mustExec("CREATE TABLE c (id INT PRIMARY KEY, v VARCHAR)", nil)
	for i := 1; i <= 10; i++ {
		h.mustExec(fmt.Sprintf("INSERT INTO a VALUES (%d, %d)", i, 11-i), nil)
		h.mustExec(fmt.Sprintf("INSERT INTO b VALUES (%d, %d)", i, i), nil)
		h.mustExec(fmt.Sprintf("INSERT INTO c VALUES (%d, 'c%d')", i, i), nil)
	}
	rows, _ := h.mustExec(`SELECT a.id, c.v FROM a
		JOIN b ON a.bref = b.id
		JOIN c ON b.cref = c.id
		WHERE a.id = 3`, nil)
	if len(rows) != 1 || rows[0][1].Str() != "c8" {
		t.Fatalf("three-way join: %v", rows)
	}
}

func TestUpdate(t *testing.T) {
	h := newHarness(t)
	h.setupItems()
	_, n := h.mustExec("UPDATE items SET qty = qty + 100 WHERE id <= 5", nil)
	if n != 5 {
		t.Fatalf("updated %d", n)
	}
	rows, _ := h.mustExec("SELECT qty FROM items WHERE id = 3", nil)
	if rows[0][0].Int() != 103 {
		t.Fatalf("qty: %v", rows[0][0])
	}
	// Update via index after key change keeps index consistent.
	_, n = h.mustExec("UPDATE items SET id = 1000 WHERE id = 1", nil)
	if n != 1 {
		t.Fatalf("pk update: %d", n)
	}
	rows, _ = h.mustExec("SELECT id FROM items WHERE id = 1000", nil)
	if len(rows) != 1 {
		t.Fatal("row not findable via new pk")
	}
	rows, _ = h.mustExec("SELECT id FROM items WHERE id = 1", nil)
	if len(rows) != 0 {
		t.Fatal("old pk still in index")
	}
}

func TestDelete(t *testing.T) {
	h := newHarness(t)
	h.setupItems()
	_, n := h.mustExec("DELETE FROM items WHERE id > 90", nil)
	if n != 10 {
		t.Fatalf("deleted %d", n)
	}
	rows, _ := h.mustExec("SELECT COUNT(*) FROM items", nil)
	if rows[0][0].Int() != 90 {
		t.Fatalf("count: %v", rows[0][0])
	}
	if h.cat.Stats("items").RowCount != 90 {
		t.Fatalf("stats: %d", h.cat.Stats("items").RowCount)
	}
}

func TestRollbackRestoresEverything(t *testing.T) {
	h := newHarness(t)
	h.setupItems()
	tx := h.tm.Begin(false)
	if _, _, err := h.execIn(tx, "UPDATE items SET id = 500, qty = 99 WHERE id = 10", nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.execIn(tx, "DELETE FROM items WHERE id = 20", nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.execIn(tx, "INSERT INTO items VALUES (999, 'x', 1, 1.0)", nil); err != nil {
		t.Fatal(err)
	}
	if err := h.tm.Rollback(tx); err != nil {
		t.Fatal(err)
	}
	rows, _ := h.mustExec("SELECT COUNT(*) FROM items", nil)
	if rows[0][0].Int() != 100 {
		t.Fatalf("count after rollback: %v", rows[0][0])
	}
	rows, _ = h.mustExec("SELECT qty FROM items WHERE id = 10", nil)
	if len(rows) != 1 || rows[0][0].Int() != 3 {
		t.Fatalf("row 10 not restored: %v", rows)
	}
	rows, _ = h.mustExec("SELECT id FROM items WHERE id = 20", nil)
	if len(rows) != 1 {
		t.Fatal("deleted row not restored")
	}
	rows, _ = h.mustExec("SELECT id FROM items WHERE id = 999", nil)
	if len(rows) != 0 {
		t.Fatal("inserted row survived rollback")
	}
	if h.cat.Stats("items").RowCount != 100 {
		t.Fatalf("stats after rollback: %d", h.cat.Stats("items").RowCount)
	}
}

func TestUniqueViolation(t *testing.T) {
	h := newHarness(t)
	h.setupItems()
	_, _, err := h.exec("INSERT INTO items VALUES (50, 'dup', 0, 0.0)", nil)
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("expected duplicate error, got %v", err)
	}
	// Table unchanged.
	rows, _ := h.mustExec("SELECT COUNT(*) FROM items", nil)
	if rows[0][0].Int() != 100 {
		t.Fatalf("count: %v", rows[0][0])
	}
	_, _, err = h.exec("UPDATE items SET id = 60 WHERE id = 61", nil)
	if err == nil {
		t.Fatal("update into duplicate pk should fail")
	}
	rows, _ = h.mustExec("SELECT id FROM items WHERE id = 61", nil)
	if len(rows) != 1 {
		t.Fatal("failed update must leave the row intact")
	}
}

func TestNotNullViolation(t *testing.T) {
	h := newHarness(t)
	h.setupItems()
	if _, _, err := h.exec("INSERT INTO items VALUES (200, NULL, 0, 0.0)", nil); err == nil {
		t.Fatal("NULL into NOT NULL should fail")
	}
}

func TestNullSemantics(t *testing.T) {
	h := newHarness(t)
	h.mustExec("CREATE TABLE n (id INT PRIMARY KEY, v INT)", nil)
	h.mustExec("INSERT INTO n VALUES (1, 10), (2, NULL), (3, 30)", nil)
	rows, _ := h.mustExec("SELECT id FROM n WHERE v > 5", nil)
	if len(rows) != 2 {
		t.Fatalf("null filtered: %d", len(rows))
	}
	rows, _ = h.mustExec("SELECT id FROM n WHERE v IS NULL", nil)
	if len(rows) != 1 || rows[0][0].Int() != 2 {
		t.Fatalf("IS NULL: %v", rows)
	}
	rows, _ = h.mustExec("SELECT id FROM n WHERE v IS NOT NULL", nil)
	if len(rows) != 2 {
		t.Fatalf("IS NOT NULL: %d", len(rows))
	}
	// NULLs excluded from aggregates except COUNT(*).
	rows, _ = h.mustExec("SELECT COUNT(*), COUNT(v), SUM(v) FROM n", nil)
	if rows[0][0].Int() != 3 || rows[0][1].Int() != 2 || rows[0][2].Float() != 40 {
		t.Fatalf("agg nulls: %v", rows[0])
	}
}

func TestSecondaryIndexMaintainedAcrossDML(t *testing.T) {
	h := newHarness(t)
	h.setupItems()
	h.mustExec("CREATE INDEX idx_name ON items (name)", nil)
	rows, _ := h.mustExec("SELECT id FROM items WHERE name = 'item05'", nil)
	if len(rows) != 10 {
		t.Fatalf("index seek rows: %d", len(rows))
	}
	h.mustExec("UPDATE items SET name = 'renamed' WHERE id = 5", nil)
	rows, _ = h.mustExec("SELECT id FROM items WHERE name = 'item05'", nil)
	if len(rows) != 9 {
		t.Fatalf("after rename: %d", len(rows))
	}
	rows, _ = h.mustExec("SELECT id FROM items WHERE name = 'renamed'", nil)
	if len(rows) != 1 || rows[0][0].Int() != 5 {
		t.Fatalf("renamed: %v", rows)
	}
	h.mustExec("DELETE FROM items WHERE name = 'renamed'", nil)
	rows, _ = h.mustExec("SELECT id FROM items WHERE name = 'renamed'", nil)
	if len(rows) != 0 {
		t.Fatal("index entry survived delete")
	}
}

func TestCancellationStopsScan(t *testing.T) {
	h := newHarness(t)
	h.setupItems()
	tx := h.tm.Begin(false)
	tx.Cancel()
	_, _, err := h.execIn(tx, "SELECT COUNT(*) FROM items", nil)
	if err == nil {
		t.Fatal("cancelled txn should not execute")
	}
	h.tm.Rollback(tx) //nolint:errcheck
}

// TestApplyStopsAtCancelAfterCollect: a cancel that lands once an UPDATE
// or DELETE has collected its targets stops the statement before its
// first change. The cursor's polls have all passed by then, so only
// apply's own poll can catch it; without it the timed-out statement
// would change every row and could commit.
func TestApplyStopsAtCancelAfterCollect(t *testing.T) {
	for _, sql := range []string{
		"UPDATE items SET qty = qty + 100 WHERE id <= 5",
		"DELETE FROM items WHERE id <= 5",
	} {
		t.Run(strings.Fields(sql)[0], func(t *testing.T) {
			h := newHarness(t)
			h.setupItems()
			stmt, err := sqlparser.Parse(sql)
			if err != nil {
				t.Fatal(err)
			}
			p, err := h.physical(stmt)
			if err != nil {
				t.Fatal(err)
			}
			w, err := CompileWrite(p, h.reg)
			if err != nil {
				t.Fatal(err)
			}
			tx := h.tm.Begin(false)
			defer h.tm.Rollback(tx) //nolint:errcheck
			ctx := &Ctx{Txn: tx}
			targets, err := w.collectTargets(ctx)
			if err != nil || len(targets) != 5 {
				t.Fatalf("collectTargets: %d targets, %v; want 5", len(targets), err)
			}
			tx.Cancel()
			if n, err := w.apply(ctx, targets); !errors.Is(err, txn.ErrCancelled) || n != 0 {
				t.Fatalf("apply after cancel: %d rows, %v; want 0 rows and ErrCancelled", n, err)
			}
			for _, tgt := range targets {
				cr, live := w.ts.Vers.ReadAt(tgt.rid, ctx.Current())
				if !live || !bytes.Equal(cr.Rec, EncodeRow(tgt.row)) {
					t.Fatalf("row %d changed by a cancelled %s", tgt.rid, strings.Fields(sql)[0])
				}
			}
		})
	}
}

func TestTableLessExpressions(t *testing.T) {
	h := newHarness(t)
	rows, _ := h.mustExec("SELECT 1 + 2 * 3 AS v, 'x' + 'y', ABS(-4), UPPER('ab')", nil)
	r := rows[0]
	if r[0].Int() != 7 || r[1].Str() != "xy" || r[2].Int() != 4 || r[3].Str() != "AB" {
		t.Fatalf("exprs: %v", r)
	}
}

func TestRowCodecRoundTrip(t *testing.T) {
	row := Row{
		sqltypes.NewInt(1),
		sqltypes.Null,
		sqltypes.NewString("hello"),
		sqltypes.NewFloat(2.5),
		sqltypes.NewBool(true),
		sqltypes.NewTime(time.Unix(123, 456)),
	}
	rec := EncodeRow(row)
	got, err := DecodeRow(nil, rec, len(row), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range row {
		if sqltypes.Compare(row[i], got[i]) != 0 {
			t.Fatalf("col %d: %v != %v", i, got[i], row[i])
		}
	}
	if _, err := DecodeRow(nil, rec, len(row)+1, nil); err == nil {
		t.Fatal("over-read should fail")
	}
	if _, err := DecodeRow(nil, rec, len(row)-1, nil); err == nil {
		t.Fatal("trailing bytes should fail")
	}
	// A masked decode into a buffer reads the flagged columns, leaves the
	// rest NULL, and allocates nothing: the skipped string is not copied.
	read := []bool{true, false, false, true, true, false}
	buf := make(Row, 0, len(row))
	if n := testing.AllocsPerRun(10, func() { got, err = DecodeRow(buf, rec, len(row), read) }); err != nil || n != 0 {
		t.Fatalf("masked decode: %v, %.0f allocations", err, n)
	}
	for i := range row {
		if want := row[i]; !read[i] && !got[i].IsNull() || read[i] && sqltypes.Compare(want, got[i]) != 0 {
			t.Fatalf("masked col %d: %v (read %v, row %v)", i, got[i], read[i], want)
		}
	}
	if _, err := DecodeRow(buf, rec[:len(rec)-1], len(row), read); err == nil {
		t.Fatal("a truncated skipped column should fail")
	}
}

// seqOp yields n one-column rows holding 1 to n.
type seqOp struct{ n, i int }

func (s *seqOp) Open(*Ctx) error { s.i = 0; return nil }
func (s *seqOp) Close() error    { return nil }
func (s *seqOp) Next(*Ctx) (Row, error) {
	if s.i == s.n {
		return nil, nil
	}
	s.i++
	return Row{sqltypes.NewInt(int64(s.i))}, nil
}

// TestProjectionSlabWasteBounded: a projection of thousands of rows cuts
// them from slabs of at most maxRowsHint rows, so the values it allocates
// and its result keeps alive exceed the values returned by at most one
// slab, on the first execution (room for 1 row expected) and on one after
// a large execution (room for maxRowsHint rows).
func TestProjectionSlabWasteBounded(t *testing.T) {
	const rows = 5000
	p := &projectOp{child: &seqOp{n: rows}, evals: []Evaluator{colEval{0}, colEval{0}}}
	n := len(p.evals)
	ctx := &Ctx{}
	for run := range 2 {
		if err := p.Open(ctx); err != nil {
			t.Fatal(err)
		}
		var out []Row
		allocated := 0
		for {
			fresh := len(p.slab) < n
			row, err := p.Next(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if row == nil {
				break
			}
			if fresh {
				allocated += len(p.slab) + n
			}
			out = append(out, row)
		}
		p.Close()
		for i, r := range out {
			if r[0].Int() != int64(i+1) || r[1].Int() != int64(i+1) {
				t.Fatalf("run %d: row %d is %v", run, i, r)
			}
		}
		if waste := allocated - rows*n; waste < 0 || waste > maxRowsHint*n {
			t.Errorf("run %d: %d values allocated for %d rows of %d, %d unused (at most %d)",
				run, allocated, rows, n, waste, maxRowsHint*n)
		}
	}
}

func TestCoerceValue(t *testing.T) {
	if v, err := CoerceValue(sqltypes.KindFloat, sqltypes.NewInt(3)); err != nil || v.Float() != 3 {
		t.Fatalf("int->float: %v %v", v, err)
	}
	if v, err := CoerceValue(sqltypes.KindInt, sqltypes.NewFloat(4.0)); err != nil || v.Int() != 4 {
		t.Fatalf("float->int: %v %v", v, err)
	}
	if _, err := CoerceValue(sqltypes.KindInt, sqltypes.NewFloat(4.5)); err == nil {
		t.Fatal("non-integral float->int should fail")
	}
	if v, err := CoerceValue(sqltypes.KindTime, sqltypes.NewString("2004-03-02")); err != nil || v.Kind() != sqltypes.KindTime {
		t.Fatalf("string->time: %v %v", v, err)
	}
	if _, err := CoerceValue(sqltypes.KindString, sqltypes.NewInt(1)); err == nil {
		t.Fatal("int->string should fail")
	}
	if v, err := CoerceValue(sqltypes.KindInt, sqltypes.Null); err != nil || !v.IsNull() {
		t.Fatal("null passes through")
	}
}

func TestCompileUnknownColumn(t *testing.T) {
	e, _ := sqlparser.ParseExpr("nope + 1")
	if _, err := Compile(e, []plan.ColMeta{{Name: "a"}}); err == nil {
		t.Fatal("unknown column should fail at compile")
	}
	e2, _ := sqlparser.ParseExpr("a")
	if _, err := Compile(e2, []plan.ColMeta{{Qual: "x", Name: "a"}, {Qual: "y", Name: "a"}}); err == nil {
		t.Fatal("ambiguous column should fail")
	}
}
