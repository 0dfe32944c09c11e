package sqlparser

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"sqlcm/internal/sqltypes"
)

func mustLex(t testing.TB, src string) Template {
	t.Helper()
	tpl, err := Lex(src)
	if err != nil {
		t.Fatalf("Lex(%q): %v", src, err)
	}
	return tpl
}

// TestTemplateKeys: which texts share a template, and what is bound.
func TestTemplateKeys(t *testing.T) {
	for _, c := range []struct {
		a, b string
		same bool
	}{
		{"SELECT a FROM t WHERE a >= 1 AND a < 9", "select  a from t where a >= 70 and a < 75", true},
		{"SELECT a FROM t WHERE s = 'x'", "SELECT a FROM t WHERE s = 'it''s'", true},
		{"SELECT a FROM t WHERE a = 1", "SELECT a FROM t WHERE a = 1.5", false}, // int vs float
		{"SELECT a FROM t WHERE a = 1", "SELECT a FROM t WHERE a = '1'", false}, // int vs string
		{"SELECT a FROM t WHERE a = -1", "SELECT a FROM t WHERE a = -7", true},  // fold kept
		{"SELECT a FROM t LIMIT 5", "SELECT a FROM t LIMIT 6", false},           // LIMIT verbatim
		{"SELECT a + 5 FROM t", "SELECT a + 7 FROM t", false},                   // names the column
		{"SELECT a + 5 AS x FROM t", "SELECT a + 7 AS x FROM t", true},          // alias names it
		{"SELECT a + 5 x, 2 y FROM t", "SELECT a + 7 x, 3 y FROM t", true},      // bare alias
		{"SELECT b FROM t GROUP BY b HAVING SUM(a*2) > 1", "SELECT b FROM t GROUP BY b HAVING SUM(a*3) > 1", false},
		{"SELECT b FROM t GROUP BY b HAVING SUM(a*2) > 1", "SELECT b FROM t GROUP BY b HAVING SUM(a*2) > 4", true},
		{"INSERT INTO t VALUES (1, 'a', 2.5)", "INSERT INTO t VALUES (2, 'b', 3.5)", true},
		{"UPDATE t SET a = 1 WHERE b = @p", "UPDATE t SET a = 2 WHERE b = @p", true},
		{"UPDATE t SET a = 1 WHERE b = @p", "UPDATE t SET a = 1 WHERE b = @q", false},
		{"EXEC p 1", "EXEC p 2", false},                                       // only queries are normalized
		{"SELECT Transaction.a FROM t", "SELECT TRANSACTION.a FROM t", false}, // a qualifier keeps its spelling
	} {
		ka, kb := mustLex(t, c.a).Key, mustLex(t, c.b).Key
		if bytes.Equal(ka, kb) != c.same {
			t.Errorf("%q vs %q: same template = %v, want %v", c.a, c.b, !c.same, c.same)
		}
	}

	tpl := mustLex(t, "SELECT a + 1, b AS x FROM t WHERE a > -2 AND s = 'q' AND c = @c LIMIT 3")
	want := []sqltypes.Value{sqltypes.NewInt(2), sqltypes.NewString("q")}
	if !reflect.DeepEqual(tpl.Lits, want) || !reflect.DeepEqual(tpl.Params, []string{"c"}) {
		t.Fatalf("lits %v params %v", tpl.Lits, tpl.Params)
	}
	stmt, err := tpl.Parse()
	if err != nil {
		t.Fatal(err)
	}
	// The folded negative keeps its slot and prints as the parsed text.
	if got := stmt.String(); got != "SELECT (a + 1), b AS x FROM t WHERE (((a > -2) AND (s = 'q')) AND (c = @c)) LIMIT 3" {
		t.Fatalf("parsed %s", got)
	}
	where := stmt.(*Select).Where.(*Logic).Left.(*Logic).Left.(*Comparison).Right.(*Literal)
	if where.Slot != 1 || !where.Neg {
		t.Fatalf("folded literal %+v, want slot 1 negated", where)
	}
}

// FuzzTemplateKey: replacing every normalized literal of a text by another
// value of the same kind keeps the key, and two texts with equal keys parse
// alike: both fail, or both give the same statement up to the values of
// their normalized literals.
func FuzzTemplateKey(f *testing.F) {
	for _, s := range []string{
		"SELECT l_id, l_quantity FROM lineitem WHERE l_id >= 10 AND l_id < 25",
		"SELECT a + 5, a * 2 AS d FROM t WHERE s = 'it''s' AND f > -1.5e3 ORDER BY a LIMIT 4",
		"SELECT g, SUM(f * 2) FROM t WHERE - -3 < g GROUP BY g HAVING SUM(f * 2) > 10",
		"INSERT INTO t (a, s) VALUES (1, 'x'), (-2, '')",
		"UPDATE t SET f = f + 0.5, s = 'y' WHERE a = @a AND b != 3",
		"DELETE FROM t WHERE a / 0 = 1",
		"SELECT 1 AS one, 'a' b",
		"SELECT a FROM t WHERE a = 99999999999999999999",
		"SELECT a FROM t WHERE a = - 'x'",
		"SELECT a FROM t WHERE a = 1e999",
		"SELECT COUNT(*) FROM t WHERE (a = 1) OR (b = 2) LIMIT 1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		ta, err := Lex(src)
		if err != nil {
			return
		}
		other := relit(ta)
		tb, err := Lex(other)
		if err != nil {
			t.Fatalf("%q lexes, its relit %q does not: %v", src, other, err)
		}
		if !bytes.Equal(ta.Key, tb.Key) {
			t.Fatalf("relit changed the key: %q vs %q", src, other)
		}
		sa, errA := ta.Parse()
		sb, errB := tb.Parse()
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%q: %v, %q: %v", src, errA, other, errB)
		}
		if errA != nil {
			return
		}
		blankSlots(reflect.ValueOf(sa))
		blankSlots(reflect.ValueOf(sb))
		if !reflect.DeepEqual(sa, sb) {
			t.Fatalf("equal keys, different statements:\n%q -> %s\n%q -> %s", src, sa, other, sb)
		}
	})
}

// relit rewrites the text of t with every normalized literal replaced by a
// different value of the same kind, set off by spaces so it cannot merge
// with a neighbouring token.
func relit(t Template) string {
	var b strings.Builder
	last := 0
	for _, tk := range t.toks {
		if tk.slot == 0 {
			continue
		}
		end := tk.pos + len(tk.text)
		repl := " 42 "
		switch t.Lits[tk.slot-1].Kind() {
		case sqltypes.KindFloat:
			repl = " 2.5 "
		case sqltypes.KindString:
			repl, end = " 'o''k' ", stringEnd(t.src, tk.pos)
		}
		b.WriteString(t.src[last:tk.pos])
		b.WriteString(repl)
		last = end
	}
	b.WriteString(t.src[last:])
	return b.String()
}

// stringEnd is the offset after the string literal starting at pos.
func stringEnd(src string, pos int) int {
	for i := pos + 1; i < len(src); i++ {
		if src[i] == '\'' {
			if i+1 < len(src) && src[i+1] == '\'' {
				i++
				continue
			}
			return i + 1
		}
	}
	return len(src)
}

// blankSlots sets the value of every slotted literal under v to the zero
// value of its kind.
func blankSlots(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return
		}
		if lit, ok := v.Interface().(*Literal); ok {
			if lit.Slot > 0 {
				switch lit.Val.Kind() {
				case sqltypes.KindInt:
					lit.Val = sqltypes.NewInt(0)
				case sqltypes.KindFloat:
					lit.Val = sqltypes.NewFloat(0)
				default:
					lit.Val = sqltypes.NewString("")
				}
			}
			return
		}
		blankSlots(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				blankSlots(v.Field(i))
			}
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			blankSlots(v.Index(i))
		}
	}
}

// BenchmarkLex reports one template pass: the repo benchmark's ad-hoc
// range SELECT (the text every adhoc_compile_mon_on statement lexes, plan
// cache hit or not) and a stored procedure body.
func BenchmarkLex(b *testing.B) {
	for _, c := range []struct{ name, src string }{
		{"adhoc", "SELECT l_id, l_quantity, l_extendedprice FROM lineitem WHERE l_id >= 41327 AND l_id < 41339"},
		{"procedure", `CREATE PROCEDURE order_report (@lo INT, @hi INT) AS BEGIN
		SELECT COUNT(*), SUM(total) FROM orders WHERE id >= @lo AND id <= @hi;
		UPDATE orders SET total = total * 1.05, note = 'it''s late' WHERE id = @lo; -- bump
	END`},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(c.src)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Lex(c.src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
