package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"sqlcm/internal/exec"
	"sqlcm/internal/signature"
	"sqlcm/internal/sqlparser"
	"sqlcm/internal/sqltypes"
	"sqlcm/internal/storage"
)

// sigRecorder collects the signatures of every compiled statement and
// counts the plan-cache hits.
type sigRecorder struct {
	NopHooks
	sigs []string
	hits int
}

func (h *sigRecorder) QueryCompiled(q *QueryInfo) {
	if q.PlanCacheHit {
		h.hits++
	}
	l, _ := signature.Logical(q.Logical)
	p, _ := signature.Physical(q.Physical)
	h.sigs = append(h.sigs, l.String()+"/"+p.String())
}

// outcome is everything a statement's caller can observe.
func outcome(res *Result, err error, h *sigRecorder) string {
	sigs := strings.Join(h.sigs, " ")
	h.sigs = h.sigs[:0]
	if err != nil {
		return "error " + err.Error() + " | " + sigs
	}
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = fmt.Sprint(r)
	}
	slices.Sort(rows) // hash aggregation emits groups in map order
	return fmt.Sprintf("%v %v affected=%d | %s", res.Columns, rows, res.Affected, sigs)
}

// templateShapes are statement templates; each %s is filled with a fresh
// literal of the kind the letter after it names: %si int, %sk an int from
// {2, 3} (so aggregate arguments repeat and differ), %sf float, %ss string.
var templateShapes = []string{
	"SELECT id, g FROM t WHERE g >= %si AND g < %si",
	"SELECT id, s FROM t WHERE id = %si",
	"SELECT id FROM t WHERE s = %ss OR s < %ss",
	"SELECT id, f FROM t WHERE f > %sf AND f <= %sf",
	"SELECT id FROM t WHERE g > -%si ORDER BY id LIMIT %si",
	"SELECT id FROM t WHERE -%si < g AND f > - -%sf",
	"SELECT id + %si, g * %si AS x, %ss AS lbl FROM t WHERE id < %si",
	"SELECT g, SUM(f * %si), COUNT(*) FROM t GROUP BY g HAVING SUM(f * %si) > %si",
	"SELECT g, SUM(id) AS total FROM t WHERE id > %si GROUP BY g HAVING COUNT(*) > %si ORDER BY total DESC, g LIMIT %si",
	"SELECT g, SUM(f * %sk) AS sm FROM t GROUP BY g HAVING SUM(f * %sk) > %si ORDER BY SUM(f * %sk)",
	"SELECT g, MAX(f) AS m FROM t GROUP BY g ORDER BY MAX(f) DESC",
	"SELECT id FROM t WHERE g = @p AND id > %si",
	"SELECT id FROM t WHERE ABS(g - %si) < %si AND id / %si > 1",
	"SELECT %si AS v, %sf + 1.5 AS w",
	"SELECT %si + 1",
	"INSERT INTO t VALUES (%si, %si, %sf, %ss)",
	"INSERT INTO t (id, s) VALUES (%si, %ss), (%si, %ss)",
	"UPDATE t SET f = f + %sf, s = %ss WHERE id = %si",
	"UPDATE t SET g = g - %si WHERE g = @p",
	"DELETE FROM t WHERE id = %si OR s = %ss",
	"EXEC bump %si",
}

// instance fills a shape with random literals.
func instance(r *rand.Rand, shape string) string {
	strs := []string{"'n3'", "'n17'", "'it''s'", "''", "'n''x'", "'zz'"}
	var b strings.Builder
	for {
		i := strings.Index(shape, "%s")
		if i < 0 {
			b.WriteString(shape)
			return b.String()
		}
		b.WriteString(shape[:i])
		switch shape[i+2] {
		case 'i':
			fmt.Fprintf(&b, "%d", r.Intn(55)) // the shapes negate some
		case 'k':
			fmt.Fprintf(&b, "%d", r.Intn(2)+2)
		case 'f':
			fmt.Fprintf(&b, "%.2f", r.Float64()*70)
		default:
			b.WriteString(strs[r.Intn(len(strs))])
		}
		shape = shape[i+3:]
	}
}

func templateEngine(t *testing.T) (*Session, *sigRecorder) {
	e := newTestEngine(t)
	s := e.NewSession("alice", "app")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, g INT, f FLOAT, s VARCHAR)")
	mustExec(t, s, "CREATE INDEX t_g ON t (g)")
	for i := 1; i <= 40; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO t VALUES (%d, %d, %g, 'n%d')", i, i%7, float64(i)*1.5, i))
	}
	mustExec(t, s, `CREATE PROCEDURE bump (@k INT) AS BEGIN
		UPDATE t SET g = g + 1 WHERE id = @k;
		IF @k > 20 THEN
			SELECT g, s FROM t WHERE id = @k AND f > 2.5;
		ELSE
			SELECT COUNT(*) FROM t WHERE g > 3;
		END IF;
	END`)
	h := &sigRecorder{}
	e.SetHooks(h)
	return s, h
}

// TestTemplateCacheMatchesFreshCompile: a statement run on the plan its
// template cached for another instance gives what compiling it afresh
// gives — columns, rows, affected count, error text and signatures. Two
// engines run the same random statement sequence; one keeps its cache, the
// other empties it before every statement.
func TestTemplateCacheMatchesFreshCompile(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		r := rand.New(rand.NewSource(seed))
		warm, hw := templateEngine(t)
		cold, hc := templateEngine(t)
		for i := 0; i < 300; i++ {
			sql := instance(r, templateShapes[r.Intn(len(templateShapes))])
			params := map[string]sqltypes.Value{"p": sqltypes.NewInt(int64(r.Intn(8)))}
			res, err := warm.Exec(sql, params)
			got := outcome(res, err, hw)
			cold.e.invalidatePlans()
			res, err = cold.Exec(sql, params)
			want := outcome(res, err, hc)
			if got != want {
				t.Fatalf("seed %d, %q:\ncached plan: %s\nfresh plan:  %s", seed, sql, got, want)
			}
		}
		// Most shapes bind every literal; those with a LIMIT, an unaliased
		// item or an aggregate argument are one template per value.
		if hw.hits < 150 {
			t.Errorf("seed %d: %d of 300 statements hit a cached plan", seed, hw.hits)
		}
	}
}

// TestPlanCacheBounded: more templates than the cache holds leave it at
// its capacity, and every statement still answers correctly.
func TestPlanCacheBounded(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession("alice", "app")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	for i := 1; i <= 50; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, i*10))
	}
	for i := 0; i < planCacheCap+100; i++ {
		id := i%60 + 1
		// LIMIT is part of the template: every statement is a new one.
		res := mustExec(t, s, fmt.Sprintf("SELECT v FROM t WHERE id = %d LIMIT %d", id, i+1))
		if id <= 50 && (len(res.Rows) != 1 || res.Rows[0][0].Int() != int64(id*10)) {
			t.Fatalf("id %d: %v", id, res.Rows)
		}
		if id > 50 && len(res.Rows) != 0 {
			t.Fatalf("id %d: %v", id, res.Rows)
		}
		if n := e.PlanCacheSize(); n > planCacheCap {
			t.Fatalf("%d plans cached, capacity %d", n, planCacheCap)
		}
	}
	if n := e.PlanCacheSize(); n != planCacheCap {
		t.Fatalf("%d plans cached, want the capacity %d", n, planCacheCap)
	}
}

// TestStalePlanNotCachedAcrossDDL: a plan compiled before a DROP TABLE and
// a CREATE TABLE with other columns, and stored after them, must not be
// cached: its column ordinals index the dropped table's rows.
func TestStalePlanNotCachedAcrossDDL(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession("alice", "app")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR, v INT)")
	mustExec(t, s, "INSERT INTO t VALUES (1, 'a', 10)")
	const q = "SELECT v FROM t WHERE id = 1"
	tpl, err := sqlparser.Lex(q)
	if err != nil {
		t.Fatal(err)
	}

	// Compile, as getPlan does on a miss...
	e.planMu.Lock()
	gen := e.planGen.Load()
	e.planMu.Unlock()
	stmt, err := tpl.Parse()
	if err != nil {
		t.Fatal(err)
	}
	cp, err := e.compile(stmt)
	if err != nil {
		t.Fatal(err)
	}
	// ...DDL lands in between...
	mustExec(t, s, "DROP TABLE t")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, s, "INSERT INTO t VALUES (1, 20)")
	// ...and the compiling session stores its plan.
	e.storePlan(tpl.Key, cp, gen)

	res, err := s.Exec(q, nil)
	if err != nil {
		t.Fatalf("after DDL: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 20 {
		t.Fatalf("after DDL: %v, want [[20]]", res.Rows)
	}
}

// concurrentShapes are read templates covering every operator a cached
// tree keeps (full scan, index range, sort, hash aggregate with HAVING,
// hash join, index-NL join, LIMIT) and write templates, which run inside a
// transaction that is rolled back, so every statement sees the seeded rows.
var concurrentShapes = []string{
	"SELECT id, s FROM t WHERE f > %sf",
	"SELECT id, g FROM t WHERE g >= %si AND g < %si",
	"SELECT id, f FROM t WHERE id > %si ORDER BY f DESC, id",
	"SELECT g, SUM(f * %sk), COUNT(*) FROM t GROUP BY g HAVING SUM(f * %sk) > %si",
	"SELECT a.id, b.id FROM t a JOIN t b ON a.f = b.f WHERE a.id < %si",
	"SELECT a.id, b.s FROM t a JOIN t b ON a.g = b.id WHERE a.id > %si",
	"SELECT id FROM t WHERE g > %si ORDER BY id LIMIT 5",
	"SELECT id FROM t WHERE g = @p AND id > %si",
	"UPDATE t SET f = f + %sf, s = %ss WHERE id = %si",
	"UPDATE t SET g = g - %si WHERE g = @p",
	"DELETE FROM t WHERE id = %si OR s = %ss",
}

// runRolledBack runs sql, inside a transaction it rolls back when sql
// writes, and renders the result without signatures.
func runRolledBack(s *Session, sql string, params map[string]sqltypes.Value) string {
	write := !strings.HasPrefix(sql, "SELECT")
	if write {
		if _, err := s.Exec("BEGIN", nil); err != nil {
			return "BEGIN: " + err.Error()
		}
	}
	res, err := s.Exec(sql, params)
	if write && err == nil {
		if _, err := s.Exec("ROLLBACK", nil); err != nil {
			return "ROLLBACK: " + err.Error()
		}
	}
	return outcome(res, err, &sigRecorder{})
}

// TestTemplateCacheMatchesFreshCompileConcurrently: two sessions running
// interleaved instances of the same templates share each template's
// pooled operator trees and compiled writes; every result must equal what
// a fresh compile gives. Run under -race, it also checks that a tree is
// never in two executions at once.
func TestTemplateCacheMatchesFreshCompileConcurrently(t *testing.T) {
	type run struct {
		sql    string
		params map[string]sqltypes.Value
		got    string
	}
	warm, _ := templateEngine(t)
	warm.e.SetHooks(nil)
	cold, _ := templateEngine(t)
	cold.e.SetHooks(nil)
	const perSession = 150
	runs := make([][]run, 2)
	var wg sync.WaitGroup
	for g := range runs {
		s := warm
		if g == 1 {
			s = warm.e.NewSession("bob", "app")
		}
		wg.Add(1)
		go func(g int, s *Session) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g + 1)))
			for i := 0; i < perSession; i++ {
				sql := instance(r, concurrentShapes[r.Intn(len(concurrentShapes))])
				params := map[string]sqltypes.Value{"p": sqltypes.NewInt(int64(r.Intn(8)))}
				runs[g] = append(runs[g], run{sql, params, runRolledBack(s, sql, params)})
			}
		}(g, s)
	}
	wg.Wait()
	for _, rs := range runs {
		for _, r := range rs {
			if strings.HasPrefix(r.got, "error") {
				t.Fatalf("%q: %s", r.sql, r.got)
			}
			cold.e.invalidatePlans()
			if want := runRolledBack(cold, r.sql, r.params); r.got != want {
				t.Fatalf("%q @p=%v:\ncached plan: %s\nfresh plan:  %s", r.sql, r.params["p"], r.got, want)
			}
		}
	}
}

// TestPooledTreesHoldNoRows: a tree back in its plan's pool after a run
// references no row, chain row or row buffer, so idle cached plans pin no
// table data.
func TestPooledTreesHoldNoRows(t *testing.T) {
	s, _ := templateEngine(t)
	for _, sql := range []string{
		"SELECT id, s FROM t",
		"SELECT id, f FROM t ORDER BY f",
		"SELECT g, COUNT(*) FROM t GROUP BY g HAVING COUNT(*) > 1",
		"SELECT a.id, b.id FROM t a JOIN t b ON a.f = b.f",
		"SELECT a.id, b.s FROM t a JOIN t b ON a.g = b.id",
		"SELECT a.id FROM t a JOIN t b ON a.id < b.g",
	} {
		tpl, err := sqlparser.Lex(sql)
		if err != nil {
			t.Fatal(err)
		}
		var tree any
		// The race detector drops pooled objects at random: retry.
		for i := 0; tree == nil && i < 100; i++ {
			mustExec(t, s, sql)
			s.e.planMu.Lock()
			cp := s.e.planCache[string(tpl.Key)]
			s.e.planMu.Unlock()
			tree = cp.trees.Get()
		}
		if tree == nil {
			t.Fatalf("%s: no tree in the pool", sql)
		}
		if path := rowRef(reflect.ValueOf(tree), "tree", map[uintptr]bool{}); path != "" {
			t.Errorf("%s: pooled tree still references rows at %s", sql, path)
		}
	}
}

var (
	rowType      = reflect.TypeOf(exec.Row(nil))
	chainRowType = reflect.TypeOf(storage.ChainRow{})
)

// rowRef returns the path of the first row reference under v: a non-empty
// Row, a non-zero ChainRow, or either in the spare capacity of a slice.
func rowRef(v reflect.Value, path string, seen map[uintptr]bool) string {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			return ""
		}
		seen[v.Pointer()] = true
		return rowRef(v.Elem(), path, seen)
	case reflect.Interface:
		if v.IsNil() {
			return ""
		}
		return rowRef(v.Elem(), path, seen)
	case reflect.Struct:
		if v.Type() == chainRowType && !v.IsZero() {
			return path
		}
		for i := 0; i < v.NumField(); i++ {
			if p := rowRef(v.Field(i), path+"."+v.Type().Field(i).Name, seen); p != "" {
				return p
			}
		}
	case reflect.Slice:
		if v.Type() == rowType && v.Len() > 0 {
			return path
		}
		if e := v.Type().Elem(); e == rowType || e == chainRowType {
			full := v.Slice(0, v.Cap())
			for i := 0; i < full.Len(); i++ {
				if !full.Index(i).IsZero() {
					return fmt.Sprintf("%s[%d]", path, i)
				}
			}
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			if p := rowRef(it.Value(), path+"[key]", seen); p != "" {
				return p
			}
		}
	}
	return ""
}
