package engine

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"sqlcm/internal/sqltypes"
)

// TestNumericOrderBeyondFloatPrecision: past 2^53 an INT and the FLOAT
// nearest to it differ, and every path decides INT op FLOAT as Compare
// does. t holds 2^53, 2^53+1, 2^53+2 and MaxInt64 in the INT column n, and
// FLOATs on both sides of 2^53+1 and 2^63 in x, below 300 filler rows that
// make the index the planner's choice and one row of NULLs. Each query
// runs with indexes on n and x and without; the row sets must agree, and
// the pinned ones are the exact answers. Over u, the hash join (the index
// nested-loop join when indexed) on t.n = u.f must return the rows the
// same join on t.n >= u.f AND t.n <= u.f does. And each predicate p,
// NOT (p) and (p) IS NULL partition t (ternary logic partitioning).
func TestNumericOrderBeyondFloatPrecision(t *testing.T) {
	const p53 = 1 << 53
	params := map[string]sqltypes.Value{
		"f53": sqltypes.NewFloat(p53),
		"f63": sqltypes.NewFloat(0x1p63),
		"i53": sqltypes.NewInt(p53 + 1),
	}
	where := func(cond string) string { return "SELECT k FROM t WHERE " + cond + " ORDER BY k" }
	preds := []struct{ cond, want string }{
		{"n = @f63", "[]"},
		{"n < @f63", ""},
		{"n >= @f63", "[]"},
		{"n > 9007199254740992.0", "[1 2 3]"},
		{"n >= 9007199254740992.0 AND n < 9007199254740994.0", "[0 1]"},
		{"n = @f53", "[0]"},
		{"n > 9223372036854774784.0", "[3]"},
		{"x = 9007199254740993", "[]"},
		{"x = @i53", "[]"},
		{"x >= @i53", "[1 2 3]"},
		{"x > 9007199254740993", "[1 2 3]"},
		{"x <= 9007199254740993 AND x > 1000", "[0]"},
		{"x < 9007199254740993 AND x > 1000", "[0]"},
		{"x >= 9223372036854775807", "[3]"},
		{"x < 9223372036854775807 AND x > 9007199254740994", "[2]"},
	}
	queries := []struct{ sql, want string }{
		{"SELECT COUNT(*) FROM t WHERE n = @f53", "[1]"},
		{"SELECT t.k FROM t JOIN u ON t.n = u.f ORDER BY t.k", "[0]"},
		{"SELECT t.k FROM t JOIN u ON t.n >= u.f AND t.n <= u.f ORDER BY t.k", "[0]"},
		{"SELECT t.k FROM t JOIN u ON t.x = u.m ORDER BY t.k", "[0]"},
		{"SELECT t.k FROM t JOIN u ON t.x >= u.m AND t.x <= u.m ORDER BY t.k", "[0]"},
	}
	for _, p := range preds {
		queries = append(queries,
			struct{ sql, want string }{where(p.cond), p.want},
			struct{ sql, want string }{where("NOT (" + p.cond + ")"), ""},
			struct{ sql, want string }{where("(" + p.cond + ") IS NULL"), ""})
	}
	run := func(t *testing.T, indexed bool) [][]int64 {
		e := newTestEngine(t)
		s := e.NewSession("alice", "app")
		mustExec(t, s, "CREATE TABLE t (k INT PRIMARY KEY, n INT, x FLOAT)")
		if indexed {
			mustExec(t, s, "CREATE INDEX t_n ON t (n)")
			mustExec(t, s, "CREATE INDEX t_x ON t (x)")
		}
		ins := func(k int64, n, x sqltypes.Value) {
			row := map[string]sqltypes.Value{"k": sqltypes.NewInt(k), "n": n, "x": x}
			if _, err := s.Exec("INSERT INTO t VALUES (@k, @n, @x)", row); err != nil {
				t.Fatal(err)
			}
		}
		for k, v := range []struct {
			n int64
			x float64
		}{{p53, p53}, {p53 + 1, p53 + 2}, {p53 + 2, p53 + 4}, {math.MaxInt64, 0x1p63}} {
			ins(int64(k), sqltypes.NewInt(v.n), sqltypes.NewFloat(v.x))
		}
		ins(4, sqltypes.Null, sqltypes.Null)
		for k := range int64(300) {
			ins(100+k, sqltypes.NewInt(k), sqltypes.NewFloat(float64(k)))
		}
		mustExec(t, s, "CREATE TABLE u (id INT PRIMARY KEY, m INT, f FLOAT)")
		mustExec(t, s, "INSERT INTO u VALUES (1, 9007199254740992, 9007199254740992.0), "+
			"(2, 9007199254740993, 9223372036854775808.0), (3, NULL, NULL)")
		out := make([][]int64, len(queries))
		for i, q := range queries {
			res, err := s.Exec(q.sql, params)
			if err != nil {
				t.Fatalf("%s: %v", q.sql, err)
			}
			for _, r := range res.Rows {
				out[i] = append(out[i], r[0].Int())
			}
		}
		return out
	}
	scan, seek := run(t, false), run(t, true)
	for i, q := range queries {
		if !slices.Equal(seek[i], scan[i]) {
			t.Errorf("%s: index %v, scan %v", q.sql, seek[i], scan[i])
		}
		if q.want != "" && fmt.Sprint(scan[i]) != q.want {
			t.Errorf("%s: scan %v, want %s", q.sql, scan[i], q.want)
		}
	}
	// TLP: the keys of p, NOT (p) and (p) IS NULL are t's keys, each once.
	all := []int64{0, 1, 2, 3, 4}
	for k := range int64(300) {
		all = append(all, 100+k)
	}
	parts := scan[len(queries)-3*len(preds):]
	for i, p := range preds {
		keys := slices.Concat(parts[3*i], parts[3*i+1], parts[3*i+2])
		slices.Sort(keys)
		if !slices.Equal(keys, all) {
			t.Errorf("%s: p %v, NOT (p) %v, (p) IS NULL %v do not partition t", p.cond, parts[3*i], parts[3*i+1], parts[3*i+2])
		}
	}
}

// TestBoolColumnTakesWhereTruth: a number stored into a BOOL column is
// TRUE exactly when WHERE reads the same number as true, so 0.5 and a
// FLOAT beyond int64's range are TRUE and -0.0 is FALSE.
func TestBoolColumnTakesWhereTruth(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession("u", "app")
	mustExec(t, s, "CREATE TABLE b (k INT PRIMARY KEY, f BOOL)")
	for i, v := range []string{"0.5", "1e300", "-0.0", "0", "-3", "TRUE"} {
		mustExec(t, s, fmt.Sprintf("INSERT INTO b VALUES (%d, %s)", i, v))
		stored := mustExec(t, s, fmt.Sprintf("SELECT k FROM b WHERE f AND k = %d", i))
		where := mustExec(t, s, fmt.Sprintf("SELECT k FROM b WHERE %s AND k = %d", v, i))
		if len(stored.Rows) != len(where.Rows) {
			t.Errorf("INSERT %s into BOOL stores %v, WHERE %s selects %v", v, stored.Rows, v, where.Rows)
		}
	}
}
