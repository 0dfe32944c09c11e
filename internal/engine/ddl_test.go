package engine

import (
	"fmt"
	"strings"
	"testing"

	"sqlcm/internal/sqltypes"
)

func TestDropTableViaSQL(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession("a", "b")
	mustExec(t, s, "CREATE TABLE temp (id INT PRIMARY KEY)")
	mustExec(t, s, "INSERT INTO temp VALUES (1)")
	mustExec(t, s, "DROP TABLE temp")
	if _, err := s.Exec("SELECT * FROM temp", nil); err == nil {
		t.Fatal("dropped table still queryable")
	}
	// Recreate under the same name.
	mustExec(t, s, "CREATE TABLE temp (x VARCHAR)")
	if _, err := s.Exec("INSERT INTO temp VALUES ('fresh')", nil); err != nil {
		t.Fatal(err)
	}
}

func TestCreateIndexViaSQLSpeedsLookups(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession("a", "b")
	mustExec(t, s, "CREATE TABLE wide (id INT PRIMARY KEY, tag VARCHAR)")
	for i := 0; i < 200; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO wide VALUES (%d, 'tag%d')", i, i%10))
	}
	// Index created after data load must be backfilled.
	mustExec(t, s, "CREATE INDEX wide_tag ON wide (tag)")
	res := mustExec(t, s, "SELECT COUNT(*) FROM wide WHERE tag = 'tag3'")
	if res.Rows[0][0].Int() != 20 {
		t.Fatalf("count via backfilled index: %v", res.Rows[0][0])
	}
}

func TestTruncateTableDirect(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession("a", "b")
	mustExec(t, s, "CREATE TABLE tr (id INT PRIMARY KEY, v VARCHAR)")
	for i := 0; i < 50; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO tr VALUES (%d, 'v%d')", i, i))
	}
	if err := e.TruncateTableDirect("tr"); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, s, "SELECT COUNT(*) FROM tr")
	if res.Rows[0][0].Int() != 0 {
		t.Fatalf("count after truncate: %v", res.Rows[0][0])
	}
	if e.Catalog().Stats("tr").RowCount != 0 {
		t.Fatalf("stats after truncate: %d", e.Catalog().Stats("tr").RowCount)
	}
	// Table and indexes still usable: the old PK values insert cleanly.
	for i := 0; i < 10; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO tr VALUES (%d, 'again')", i))
	}
	res = mustExec(t, s, "SELECT v FROM tr WHERE id = 5")
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "again" {
		t.Fatalf("post-truncate lookup: %+v", res.Rows)
	}
	if err := e.TruncateTableDirect("missing"); err == nil {
		t.Fatal("truncate of missing table should fail")
	}
}

func TestProcedureTextPreserved(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession("a", "b")
	src := "CREATE PROCEDURE p (@x INT) AS BEGIN SELECT @x + 1 AS y; END"
	mustExec(t, s, src)
	proc, err := e.Catalog().Procedure("p")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(proc.Text, "CREATE PROCEDURE p") {
		t.Fatalf("text: %q", proc.Text)
	}
	res, err := s.Exec("EXEC p 41", nil)
	if err != nil || res.Rows[0][0].Int() != 42 {
		t.Fatalf("proc result: %+v err %v", res, err)
	}
}

func TestExecWrongArity(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession("a", "b")
	mustExec(t, s, "CREATE PROCEDURE p (@x INT) AS BEGIN SELECT @x; END")
	if _, err := s.Exec("EXEC p", nil); err == nil {
		t.Fatal("missing arg accepted")
	}
	if _, err := s.Exec("EXEC p 1, 2", nil); err == nil {
		t.Fatal("extra arg accepted")
	}
	if _, err := s.Exec("EXEC nope 1", nil); err == nil {
		t.Fatal("unknown proc accepted")
	}
}

func TestSessionErrors(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession("a", "b")
	if _, err := s.Exec("COMMIT", nil); err == nil {
		t.Fatal("commit without txn accepted")
	}
	if _, err := s.Exec("ROLLBACK", nil); err == nil {
		t.Fatal("rollback without txn accepted")
	}
	mustExec(t, s, "BEGIN")
	if _, err := s.Exec("BEGIN", nil); err == nil {
		t.Fatal("nested begin accepted")
	}
	mustExec(t, s, "COMMIT")
	if _, err := s.Exec("SELEC 1", nil); err == nil {
		t.Fatal("parse error swallowed")
	}
}

func TestClosedEngineRejectsWork(t *testing.T) {
	e, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := e.NewSession("a", "b")
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("SELECT 1", nil); err == nil {
		t.Fatal("closed engine accepted a statement")
	}
	if err := e.Close(); err != nil {
		t.Fatal("double close should be a no-op")
	}
}

func TestTypeCoercionAtInsert(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession("a", "b")
	mustExec(t, s, "CREATE TABLE ty (id INT PRIMARY KEY, f FLOAT, ts DATETIME)")
	// INT literal into FLOAT column; string into DATETIME.
	mustExec(t, s, "INSERT INTO ty VALUES (1, 3, '2004-03-02 10:00:00')")
	res := mustExec(t, s, "SELECT f, ts FROM ty WHERE id = 1")
	if res.Rows[0][0].Kind() != sqltypes.KindFloat || res.Rows[0][0].Float() != 3 {
		t.Fatalf("float coercion: %v", res.Rows[0][0])
	}
	if res.Rows[0][1].Kind() != sqltypes.KindTime {
		t.Fatalf("time coercion: %v", res.Rows[0][1])
	}
	if _, err := s.Exec("INSERT INTO ty VALUES (2, 'oops', NULL)", nil); err == nil {
		t.Fatal("string into FLOAT accepted")
	}
}
