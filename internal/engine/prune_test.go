package engine

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"sqlcm/internal/exec"
	"sqlcm/internal/plan"
	"sqlcm/internal/sqlparser"
	"sqlcm/internal/sqltypes"
)

// TestPrunedDecodeMatchesFullRow: a scan decodes only the columns the
// operators above it read, so each kind of column consumer gets a query
// here — projection items, scan residuals and a WHERE over a join (the
// optimizer plans no separate filter), index key columns (the stale-entry
// check re-encodes them), sort keys, group keys and aggregate arguments,
// hash, index nested-loop and nested-loop join keys and residuals — and
// its rows must equal the rows computed in Go from SELECT * of the same
// tables, read in the same transaction. The queries run after the load;
// while an open snapshot keeps the stale index entries of an UPDATE that
// moved indexed keys (from both sides of that UPDATE); inside a write
// transaction and after its rollback; and each twice, the second time on
// the template's pooled
// operator tree.
func TestPrunedDecodeMatchesFullRow(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession("alice", "app")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, a INT, b FLOAT, s VARCHAR, g INT, c VARCHAR)")
	mustExec(t, s, "CREATE INDEX t_a ON t (a)")
	mustExec(t, s, "CREATE TABLE u (k INT PRIMARY KEY, v INT, w VARCHAR)")
	for i := 1; i <= 60; i++ {
		a, str := fmt.Sprint(i%9), fmt.Sprintf("'s%d'", i%4)
		if i%13 == 0 {
			a = "NULL"
		}
		if i%11 == 0 {
			str = "NULL"
		}
		mustExec(t, s, fmt.Sprintf("INSERT INTO t VALUES (%d, %s, %g, %s, %d, 'c%d')", i, a, float64(i)*0.5, str, i%5, i%6))
	}
	for k := 0; k < 8; k++ {
		w := fmt.Sprintf("'c%d'", k%6)
		if k == 5 {
			w = "NULL"
		}
		mustExec(t, s, fmt.Sprintf("INSERT INTO u VALUES (%d, %d, %s)", k, k%9+k/4, w))
	}

	// Column ordinals of t and u.
	const (
		tID, tA, tB, tS, tG, tC = 0, 1, 2, 3, 4, 5
		uK, uV, uW              = 0, 1, 2
	)
	type tables struct{ t, u []exec.Row }
	type query struct {
		sql     string
		ordered bool
		want    func(db tables) []exec.Row
	}
	pick := func(r exec.Row, ords ...int) exec.Row {
		out := make(exec.Row, len(ords))
		for i, o := range ords {
			out[i] = r[o]
		}
		return out
	}
	where := func(rows []exec.Row, keep func(exec.Row) bool, ords ...int) []exec.Row {
		var out []exec.Row
		for _, r := range rows {
			if keep(r) {
				out = append(out, pick(r, ords...))
			}
		}
		return out
	}
	join := func(db tables, on func(tr, ur exec.Row) bool, out func(tr, ur exec.Row) exec.Row) []exec.Row {
		var rows []exec.Row
		for _, tr := range db.t {
			for _, ur := range db.u {
				if on(tr, ur) {
					rows = append(rows, out(tr, ur))
				}
			}
		}
		return rows
	}
	eq := func(x, y sqltypes.Value) bool { return !x.IsNull() && !y.IsNull() && sqltypes.Compare(x, y) == 0 }
	cmp := func(x sqltypes.Value, op string, y sqltypes.Value) bool {
		if x.IsNull() || y.IsNull() {
			return false
		}
		c := sqltypes.Compare(x, y)
		return op == "<" && c < 0 || op == ">" && c > 0
	}
	num := func(v sqltypes.Value) float64 { f, _ := v.AsFloat(); return f }
	queries := []query{
		{"SELECT * FROM t", false, func(db tables) []exec.Row { return db.t }},
		{"SELECT s, b, id FROM t", false, func(db tables) []exec.Row {
			return where(db.t, func(exec.Row) bool { return true }, tS, tB, tID)
		}},
		{"SELECT id FROM t WHERE b > 10 AND s = 's1'", false, func(db tables) []exec.Row {
			return where(db.t, func(r exec.Row) bool {
				return cmp(r[tB], ">", sqltypes.NewInt(10)) && eq(r[tS], sqltypes.NewString("s1"))
			}, tID)
		}},
		{"SELECT id, c FROM t WHERE a = 3", false, func(db tables) []exec.Row {
			return where(db.t, func(r exec.Row) bool { return eq(r[tA], sqltypes.NewInt(3)) }, tID, tC)
		}},
		{"SELECT s FROM t WHERE a >= 2 AND a < 5 AND g = 1", false, func(db tables) []exec.Row {
			return where(db.t, func(r exec.Row) bool {
				return !cmp(r[tA], "<", sqltypes.NewInt(2)) && cmp(r[tA], "<", sqltypes.NewInt(5)) && eq(r[tG], sqltypes.NewInt(1))
			}, tS)
		}},
		{"SELECT id FROM t ORDER BY b DESC, id", true, func(db tables) []exec.Row {
			rows := slices.Clone(db.t)
			slices.SortStableFunc(rows, func(x, y exec.Row) int {
				if c := sqltypes.Compare(y[tB], x[tB]); c != 0 {
					return c
				}
				return sqltypes.Compare(x[tID], y[tID])
			})
			return where(rows, func(exec.Row) bool { return true }, tID)
		}},
		{"SELECT g, COUNT(s), SUM(b), MAX(c) FROM t GROUP BY g", false, func(db tables) []exec.Row {
			groups := map[int64]exec.Row{}
			for _, r := range db.t {
				acc := groups[r[tG].Int()]
				if acc == nil {
					acc = exec.Row{r[tG], sqltypes.NewInt(0), sqltypes.NewFloat(0), sqltypes.Null}
					groups[r[tG].Int()] = acc
				}
				if !r[tS].IsNull() {
					acc[1] = sqltypes.NewInt(acc[1].Int() + 1)
				}
				acc[2] = sqltypes.NewFloat(acc[2].Float() + num(r[tB]))
				if acc[3].IsNull() || sqltypes.Compare(r[tC], acc[3]) > 0 {
					acc[3] = r[tC]
				}
			}
			var rows []exec.Row
			for _, acc := range groups {
				rows = append(rows, acc)
			}
			return rows
		}},
		{"SELECT g, COUNT(*) FROM t GROUP BY g HAVING SUM(a) > 20", false, func(db tables) []exec.Row {
			count, sum := map[int64]int64{}, map[int64]int64{}
			for _, r := range db.t {
				count[r[tG].Int()]++
				if !r[tA].IsNull() {
					sum[r[tG].Int()] += r[tA].Int()
				}
			}
			var rows []exec.Row
			for g, n := range count {
				if sum[g] > 20 {
					rows = append(rows, exec.Row{sqltypes.NewInt(g), sqltypes.NewInt(n)})
				}
			}
			return rows
		}},
		{"SELECT SUM(a) FROM t WHERE g = 2", false, func(db tables) []exec.Row {
			var sum int64
			for _, r := range db.t {
				if r[tG].Int() == 2 && !r[tA].IsNull() {
					sum += r[tA].Int()
				}
			}
			return []exec.Row{{sqltypes.NewInt(sum)}}
		}},
		{"SELECT t.id, u.k FROM t JOIN u ON t.c = u.w", false, func(db tables) []exec.Row {
			return join(db, func(tr, ur exec.Row) bool { return eq(tr[tC], ur[uW]) },
				func(tr, ur exec.Row) exec.Row { return exec.Row{tr[tID], ur[uK]} })
		}},
		{"SELECT t.id, u.k FROM t JOIN u ON t.c = u.w AND t.b > u.k", false, func(db tables) []exec.Row {
			return join(db, func(tr, ur exec.Row) bool { return eq(tr[tC], ur[uW]) && cmp(tr[tB], ">", ur[uK]) },
				func(tr, ur exec.Row) exec.Row { return exec.Row{tr[tID], ur[uK]} })
		}},
		{"SELECT u.k, t.s FROM u JOIN t ON t.a = u.v", false, func(db tables) []exec.Row {
			return join(db, func(tr, ur exec.Row) bool { return eq(tr[tA], ur[uV]) },
				func(tr, ur exec.Row) exec.Row { return exec.Row{ur[uK], tr[tS]} })
		}},
		{"SELECT u.w, t.id FROM u JOIN t ON t.a = u.v AND t.c != u.w", false, func(db tables) []exec.Row {
			return join(db, func(tr, ur exec.Row) bool {
				return eq(tr[tA], ur[uV]) && (cmp(tr[tC], "<", ur[uW]) || cmp(tr[tC], ">", ur[uW]))
			}, func(tr, ur exec.Row) exec.Row { return exec.Row{ur[uW], tr[tID]} })
		}},
		{"SELECT t.id, u.k FROM t JOIN u ON t.b < u.v", false, func(db tables) []exec.Row {
			return join(db, func(tr, ur exec.Row) bool { return cmp(tr[tB], "<", ur[uV]) },
				func(tr, ur exec.Row) exec.Row { return exec.Row{tr[tID], ur[uK]} })
		}},
		{"SELECT t.id FROM t JOIN u ON t.g = u.k WHERE t.b + u.v > 20", false, func(db tables) []exec.Row {
			return join(db, func(tr, ur exec.Row) bool { return eq(tr[tG], ur[uK]) && num(tr[tB])+num(ur[uV]) > 20 },
				func(tr, ur exec.Row) exec.Row { return exec.Row{tr[tID]} })
		}},
	}

	// The queries cover every consumer: the plans hold each operator the
	// optimizer plans, and the index on a both as an access path and as a
	// join probe.
	var ops []string
	for _, q := range queries {
		stmt, err := sqlparser.Parse(q.sql)
		if err != nil {
			t.Fatal(err)
		}
		l, err := plan.BuildLogical(stmt, e.Catalog())
		if err != nil {
			t.Fatal(err)
		}
		p, err := plan.Optimize(l, e.Catalog())
		if err != nil {
			t.Fatal(err)
		}
		for stack := []plan.Physical{p}; len(stack) > 0; {
			n := stack[len(stack)-1]
			stack = append(stack[:len(stack)-1], n.PChildren()...)
			op := strings.TrimPrefix(fmt.Sprintf("%T", n), "*plan.")
			if sc, ok := n.(*plan.PhysScan); ok && sc.Access.Index != nil {
				op += "/index"
			}
			ops = append(ops, op)
		}
	}
	for _, op := range []string{"PhysProject", "PhysScan/index", "PhysSort", "PhysHashAgg", "PhysHashJoin", "PhysIndexNLJoin", "PhysNLJoin"} {
		if !slices.Contains(ops, op) {
			t.Errorf("no query plans a %s", op)
		}
	}

	rowsOf := func(sess *Session, sql string) []exec.Row {
		t.Helper()
		res, err := sess.Exec(sql, nil)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res.Rows
	}
	check := func(phase string, sess *Session) {
		t.Helper()
		db := tables{t: rowsOf(sess, "SELECT * FROM t"), u: rowsOf(sess, "SELECT * FROM u")}
		for _, q := range queries {
			want := q.want(db)
			for run := 1; run <= 2; run++ {
				got := rowsOf(sess, q.sql)
				if !sameRows(got, want, q.ordered) {
					t.Errorf("%s, %s (run %d):\ngot  %v\nwant %v", phase, q.sql, run, got, want)
				}
			}
		}
	}
	check("loaded", s)

	// An open snapshot keeps the stale entries of the keys the UPDATE
	// moves: the index on a still lists each moved row under its old key.
	old := e.NewSession("bob", "app")
	mustExec(t, old, "BEGIN")
	check("snapshot before the moves", old)
	mustExec(t, s, "UPDATE t SET a = a + 4, c = 'moved' WHERE id % 3 = 0")
	mustExec(t, s, "UPDATE t SET a = NULL WHERE id % 8 = 1")
	mustExec(t, s, "DELETE FROM t WHERE id % 10 = 7")
	mustExec(t, s, "INSERT INTO t VALUES (100, 3, 7.5, 'new', 1, 'c3'), (101, 2, 1.5, NULL, 2, 'moved')")
	check("keys moved", s)
	check("snapshot across the moves", old)

	// A write transaction reads its own writes; its rollback restores the
	// committed rows, the index entries it added gone with them.
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE t SET a = a + 1, s = 'rb' WHERE g = 2")
	mustExec(t, s, "INSERT INTO t VALUES (200, 3, 99.5, 'rb', 3, 'c1')")
	mustExec(t, s, "DELETE FROM t WHERE g = 4")
	check("inside a write transaction", s)
	mustExec(t, s, "ROLLBACK")
	check("rolled back", s)
	mustExec(t, old, "COMMIT")
	check("snapshot closed", s)
}

// sameRows reports whether got and want hold the same rows, in the same
// order when ordered: values compare with sqltypes.Compare, NULL equal
// only to NULL.
func sameRows(got, want []exec.Row, ordered bool) bool {
	if len(got) != len(want) {
		return false
	}
	cmpRow := func(x, y exec.Row) int {
		if c := len(x) - len(y); c != 0 {
			return c
		}
		for i := range x {
			switch xn, yn := x[i].IsNull(), y[i].IsNull(); {
			case xn && yn:
			case xn:
				return -1
			case yn:
				return 1
			default:
				if c := sqltypes.Compare(x[i], y[i]); c != 0 {
					return c
				}
			}
		}
		return 0
	}
	if !ordered {
		got, want = slices.Clone(got), slices.Clone(want)
		slices.SortFunc(got, cmpRow)
		slices.SortFunc(want, cmpRow)
	}
	for i := range got {
		if cmpRow(got[i], want[i]) != 0 {
			return false
		}
	}
	return true
}
