package sqlparser

import (
	"strings"
	"testing"

	"sqlcm/internal/sqltypes"
)

func mustParse(t *testing.T, src string) Statement {
	t.Helper()
	s, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return s
}

func TestParseCreateTable(t *testing.T) {
	s := mustParse(t, `CREATE TABLE lineitem (
		l_orderkey INT,
		l_linenumber INT,
		l_quantity FLOAT NOT NULL,
		l_comment VARCHAR,
		l_shipdate DATETIME,
		l_id INT PRIMARY KEY
	)`)
	ct, ok := s.(*CreateTable)
	if !ok {
		t.Fatalf("got %T", s)
	}
	if ct.Name != "lineitem" || len(ct.Columns) != 6 {
		t.Fatalf("bad table: %+v", ct)
	}
	if ct.Columns[2].Type != sqltypes.KindFloat || !ct.Columns[2].NotNull {
		t.Errorf("column 2 wrong: %+v", ct.Columns[2])
	}
	if !ct.Columns[5].PrimaryKey || !ct.Columns[5].NotNull {
		t.Errorf("primary key should imply not null: %+v", ct.Columns[5])
	}
}

func TestParseCreateIndex(t *testing.T) {
	s := mustParse(t, "CREATE UNIQUE INDEX idx_ok ON orders (o_orderkey, o_custkey)")
	ci := s.(*CreateIndex)
	if !ci.Unique || ci.Table != "orders" || len(ci.Columns) != 2 {
		t.Fatalf("bad index: %+v", ci)
	}
}

func TestParseSelectFull(t *testing.T) {
	s := mustParse(t, `SELECT l.l_orderkey, SUM(l.l_quantity) AS total, COUNT(*)
		FROM lineitem AS l JOIN orders o ON l.l_orderkey = o.o_orderkey
		WHERE o.o_totalprice > 100.5 AND NOT l.l_quantity <= 2
		GROUP BY l.l_orderkey
		HAVING SUM(l.l_quantity) > 10
		ORDER BY total DESC, l.l_orderkey
		LIMIT 7`)
	sel := s.(*Select)
	if len(sel.Items) != 3 || sel.Items[1].Alias != "total" {
		t.Fatalf("items: %+v", sel.Items)
	}
	if sel.Table != "lineitem" || sel.Alias != "l" {
		t.Fatalf("from: %q %q", sel.Table, sel.Alias)
	}
	if len(sel.Joins) != 1 || sel.Joins[0].Alias != "o" {
		t.Fatalf("joins: %+v", sel.Joins)
	}
	if sel.Where == nil || len(sel.GroupBy) != 1 || sel.Having == nil {
		t.Fatal("missing where/group/having")
	}
	if len(sel.OrderBy) != 2 || !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc {
		t.Fatalf("orderby: %+v", sel.OrderBy)
	}
	if sel.Limit != 7 {
		t.Fatalf("limit: %d", sel.Limit)
	}
}

func TestParseSelectStar(t *testing.T) {
	sel := mustParse(t, "SELECT * FROM t WHERE a = 1").(*Select)
	if !sel.Items[0].Star {
		t.Fatal("expected star item")
	}
	cmp := sel.Where.(*Comparison)
	if cmp.Op != CmpEq {
		t.Fatalf("op: %v", cmp.Op)
	}
}

func TestParseInsert(t *testing.T) {
	ins := mustParse(t, "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y''z')").(*Insert)
	if len(ins.Rows) != 2 || len(ins.Columns) != 2 {
		t.Fatalf("insert: %+v", ins)
	}
	lit := ins.Rows[1][1].(*Literal)
	if lit.Val.Str() != "y'z" {
		t.Fatalf("escaped string: %q", lit.Val.Str())
	}
}

func TestParseUpdateDelete(t *testing.T) {
	upd := mustParse(t, "UPDATE t SET a = a + 1, b = 'x' WHERE id = 3").(*Update)
	if len(upd.Sets) != 2 || upd.Where == nil {
		t.Fatalf("update: %+v", upd)
	}
	del := mustParse(t, "DELETE FROM t WHERE a > 5").(*Delete)
	if del.Table != "t" || del.Where == nil {
		t.Fatalf("delete: %+v", del)
	}
}

func TestParseTransactions(t *testing.T) {
	if _, ok := mustParse(t, "BEGIN TRANSACTION").(*Begin); !ok {
		t.Error("BEGIN")
	}
	if _, ok := mustParse(t, "COMMIT").(*Commit); !ok {
		t.Error("COMMIT")
	}
	if _, ok := mustParse(t, "ROLLBACK").(*Rollback); !ok {
		t.Error("ROLLBACK")
	}
}

func TestParseProcedure(t *testing.T) {
	src := `CREATE PROCEDURE get_order (@key INT, @big BOOL) AS BEGIN
		IF @big = TRUE THEN
			SELECT * FROM orders WHERE o_orderkey = @key;
			SELECT * FROM lineitem WHERE l_orderkey = @key;
		ELSE
			SELECT o_totalprice FROM orders WHERE o_orderkey = @key;
		END IF;
		UPDATE stats SET hits = hits + 1 WHERE proc_name = 'get_order';
	END`
	cp := mustParse(t, src).(*CreateProcedure)
	if cp.Name != "get_order" || len(cp.Params) != 2 {
		t.Fatalf("proc: %+v", cp)
	}
	if cp.Params[0].Type != sqltypes.KindInt || cp.Params[1].Type != sqltypes.KindBool {
		t.Fatalf("params: %+v", cp.Params)
	}
	if len(cp.Body) != 2 {
		t.Fatalf("body len: %d", len(cp.Body))
	}
	ifs := cp.Body[0].(*If)
	if len(ifs.Then) != 2 || len(ifs.Else) != 1 {
		t.Fatalf("if branches: %d/%d", len(ifs.Then), len(ifs.Else))
	}
}

func TestParseExecAndCall(t *testing.T) {
	ex := mustParse(t, "EXEC get_order 42, TRUE").(*Exec)
	if ex.Proc != "get_order" || len(ex.Args) != 2 {
		t.Fatalf("exec: %+v", ex)
	}
	ex2 := mustParse(t, "CALL get_order(42, FALSE)").(*Exec)
	if len(ex2.Args) != 2 {
		t.Fatalf("call: %+v", ex2)
	}
	ex3 := mustParse(t, "EXEC ping").(*Exec)
	if len(ex3.Args) != 0 {
		t.Fatalf("no-arg exec: %+v", ex3)
	}
}

func TestParseExprPrecedence(t *testing.T) {
	e, err := ParseExpr("a + 2 * 3 > 4 AND NOT b = 1 OR c < 0")
	if err != nil {
		t.Fatal(err)
	}
	// Expect ((a + (2*3)) > 4 AND (NOT (b = 1))) OR (c < 0)
	or, ok := e.(*Logic)
	if !ok || or.Op != LogicOr {
		t.Fatalf("top: %s", e)
	}
	and, ok := or.Left.(*Logic)
	if !ok || and.Op != LogicAnd {
		t.Fatalf("left: %s", or.Left)
	}
	if _, ok := and.Right.(*Not); !ok {
		t.Fatalf("and.right: %s", and.Right)
	}
	got := e.String()
	want := "(((a + (2 * 3)) > 4) AND (NOT (b = 1))) OR ((c < 0))"
	// String adds parens around each node; compare structure loosely.
	if !strings.Contains(got, "(2 * 3)") {
		t.Errorf("mul should bind tighter: %s (want pattern in %s)", got, want)
	}
}

func TestParseExprForms(t *testing.T) {
	cases := []string{
		"x IS NULL",
		"x IS NOT NULL",
		"n <> 0 IS NULL", // (n <> 0) IS NULL
		"-x * 3",
		"Query.Duration > 5 * Duration_LAT.Avg_Duration",
		"Transaction.Duration > 0 AND Transaction.ID = 3", // keyword as qualifier
		"(a = 1 OR b = 2) AND c != 3",
		"AVG(d) + 1.5e2",
		"COUNT(*)",
		"a % 2 = 0",
		"'it''s'",
	}
	for _, src := range cases {
		if _, err := ParseExpr(src); err != nil {
			t.Errorf("ParseExpr(%q): %v", src, err)
		}
	}
}

func TestNegativeLiteralFolding(t *testing.T) {
	e, err := ParseExpr("-5")
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := e.(*Literal)
	if !ok || lit.Val.Int() != -5 {
		t.Fatalf("got %s", e)
	}
}

func TestParseAllMultipleStatements(t *testing.T) {
	stmts, err := ParseAll("BEGIN; SELECT 1; COMMIT;")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("got %d statements", len(stmts))
	}
}

func TestParseComments(t *testing.T) {
	s := mustParse(t, `SELECT 1 -- trailing comment
		/* block
		   comment */ FROM t`)
	if s.(*Select).Table != "t" {
		t.Fatal("comments not skipped")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC 1",
		"SELECT FROM t",
		"INSERT INTO VALUES (1)",
		"CREATE TABLE t (a NOTATYPE)",
		"SELECT * FROM t WHERE",
		"SELECT 'unterminated",
		"UPDATE t SET",
		"CREATE PROCEDURE p AS BEGIN SELECT 1;", // missing END
		"IF a = 1 THEN SELECT 1;",               // missing END IF
		"SET x = 1",                             // SET needs @var
		"SELECT 1 2",
		"SELECT @",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestStatementStringRoundTrips(t *testing.T) {
	// String output must itself re-parse for plain DML statements.
	srcs := []string{
		"SELECT a, b AS x FROM t WHERE (a > 1) ORDER BY b DESC LIMIT 3",
		"INSERT INTO t (a) VALUES (1), (2)",
		"UPDATE t SET a = 2 WHERE b = 'q'",
		"DELETE FROM t WHERE a IS NOT NULL",
	}
	for _, src := range srcs {
		s := mustParse(t, src)
		if _, err := Parse(s.String()); err != nil {
			t.Errorf("re-parse of %q -> %q: %v", src, s.String(), err)
		}
	}
}

func TestIsAggregate(t *testing.T) {
	e, _ := ParseExpr("SUM(a) + 1")
	if !IsAggregate(e) {
		t.Error("SUM(a)+1 should be aggregate")
	}
	e2, _ := ParseExpr("a + 1")
	if IsAggregate(e2) {
		t.Error("a+1 should not be aggregate")
	}
}

func TestLexerErrors(t *testing.T) {
	if _, err := lex("SELECT #"); err == nil {
		t.Error("lex should reject '#'")
	}
	if _, err := lex("@ x"); err == nil {
		t.Error("lex should reject bare @")
	}
}

func TestParseDropTable(t *testing.T) {
	d := mustParse(t, "DROP TABLE old_stuff").(*DropTable)
	if d.Name != "old_stuff" {
		t.Fatalf("drop: %+v", d)
	}
	if _, err := Parse("DROP old_stuff"); err == nil {
		t.Error("DROP without TABLE should fail")
	}
	if _, err := Parse("DROP TABLE"); err == nil {
		t.Error("DROP TABLE without name should fail")
	}
}

func TestParseNestedParens(t *testing.T) {
	sel := mustParse(t, "SELECT ((1 + 2)) * (3) FROM t WHERE ((a = 1))").(*Select)
	if sel.Where == nil {
		t.Fatal("where lost")
	}
}

func TestParseKeywordCaseInsensitive(t *testing.T) {
	if _, err := Parse("select a from t where a > 1 order by a desc limit 2"); err != nil {
		t.Fatalf("lowercase keywords: %v", err)
	}
}
