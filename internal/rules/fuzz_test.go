package rules

import (
	"fmt"
	"strings"
	"testing"

	"sqlcm/internal/engine"
	"sqlcm/internal/monitor"
	"sqlcm/internal/sqltypes"
)

// fuzzEnv resolves a fixed attribute set; everything else is unknown.
func fuzzEnv() (Env, *Ctx) {
	obj := &fakeObj{class: monitor.ClassQuery, attrs: map[string]sqltypes.Value{
		"ID":       sqltypes.NewInt(7),
		"Duration": sqltypes.NewFloat(1.5),
		"User":     sqltypes.NewString("dba"),
	}}
	ctx := &Ctx{Objects: map[string]monitor.Object{monitor.ClassQuery: obj}, Primary: obj}
	return newFakeEnv(), ctx
}

// FuzzSubstitute hardens the placeholder scanner against unmatched,
// nested, empty and adjacent braces: it must never panic, always
// terminate, and preserve text outside well-formed placeholders.
func FuzzSubstitute(f *testing.F) {
	f.Add("plain text, no braces")
	f.Add("known {ID} and unknown {nope}")
	f.Add("unmatched { opener")
	f.Add("unmatched } closer")
	f.Add("{}")
	f.Add("{{nested {ID}}}")
	f.Add("adjacent {ID}{User}{Duration}")
	f.Add("trailing {")
	f.Add("{unclosed at end")
	f.Add("}{ reversed")
	f.Add("deep {{{{{{ID}}}}}}")
	f.Add("LAT-style {L.AvgD} refs")
	f.Add("unicode {Düration} braces 💥 {")

	env, ctx := fuzzEnv()
	f.Fuzz(func(t *testing.T, text string) {
		out := Substitute(env, text, ctx)

		// Termination + no panic are implied by getting here. Sanity: the
		// output never shrinks below the input minus all well-formed
		// placeholder syntax, and known refs are substituted.
		if !strings.ContainsRune(text, '{') && out != text {
			t.Fatalf("brace-free text altered: %q → %q", text, out)
		}
		// A lone unmatched opener passes everything through verbatim from
		// that point, so the tail must be preserved.
		if i := strings.IndexByte(text, '{'); i >= 0 && !strings.ContainsRune(text[i:], '}') {
			if !strings.HasSuffix(out, text[i:]) {
				t.Fatalf("unterminated tail mangled: %q → %q", text, out)
			}
		}
		// Unknown refs are kept as-is, so substitution is idempotent for
		// outputs that contain no known refs anymore.
		out2 := Substitute(env, out, ctx)
		out3 := Substitute(env, out2, ctx)
		if out3 != out2 {
			t.Fatalf("substitution not idempotent: %q → %q → %q", out, out2, out3)
		}
	})
}

func TestSubstituteEdgeCases(t *testing.T) {
	env, ctx := fuzzEnv()
	for _, tc := range []struct{ in, want string }{
		{"", ""},
		{"{ID}", "7"},
		{"{}", "{}"},
		{"a{b", "a{b"},
		{"a}b", "a}b"},
		{"{ID", "{ID"},
		{"ID}", "ID}"},
		{"{{ID}}", "{{ID}}"}, // ref "{ID" is unknown → kept verbatim, plus the tail "}"
		{"x{ID}y{User}z", "x7ydbaz"},
		{"{nope}", "{nope}"},
	} {
		if got := Substitute(env, tc.in, ctx); got != tc.want {
			t.Errorf("Substitute(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// condGen derives a NULL-free integer condition over the columns a, b and c
// from fuzz input, byte by byte; exhausted input yields the shortest form, so
// generation always terminates.
type condGen struct {
	data []byte
	pos  int
}

func (g *condGen) next(n int) int {
	if g.pos >= len(g.data) {
		return 0
	}
	b := g.data[g.pos]
	g.pos++
	return int(b) % n
}

func (g *condGen) arith(depth int) string {
	choices := 6
	if depth == 0 {
		choices = 2
	}
	switch g.next(choices) {
	case 0:
		return fmt.Sprint(g.next(10))
	case 1:
		return []string{"a", "b", "c"}[g.next(3)]
	case 2:
		return "(" + g.arith(depth-1) + " + " + g.arith(depth-1) + ")"
	case 3:
		return "(" + g.arith(depth-1) + " - " + g.arith(depth-1) + ")"
	case 4:
		return "(" + g.arith(depth-1) + " * " + g.arith(depth-1) + ")"
	default:
		return "(-" + g.arith(depth-1) + ")"
	}
}

func (g *condGen) cond(depth int) string {
	if depth == 0 || g.next(3) == 0 {
		l := g.arith(2)
		switch op := g.next(8); op {
		case 6:
			return "(" + l + ") IS NULL"
		case 7:
			return "(" + l + ") IS NOT NULL"
		default:
			return l + " " + []string{"=", "<>", "<", "<=", ">", ">="}[op] + " " + g.arith(2)
		}
	}
	switch g.next(3) {
	case 0:
		return "(" + g.cond(depth-1) + ") AND (" + g.cond(depth-1) + ")"
	case 1:
		return "(" + g.cond(depth-1) + ") OR (" + g.cond(depth-1) + ")"
	default:
		return "NOT (" + g.cond(depth-1) + ")"
	}
}

// FuzzCondVsWhere is the differential check behind the one expression
// compiler: where no NULL can arise, a rule condition over an object and the
// same text as the WHERE clause of a SELECT over the equal row must give the
// same answer — filtering the operands of AND/OR/NOT (rules) and filtering
// only the top (WHERE) differ on NULL alone. The SELECT goes through the
// planner, so conjuncts split between access path and residual are covered.
func FuzzCondVsWhere(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 1, 0, 2, 1, 0, 0, 5})
	f.Add([]byte{5, 1, 0, 1, 2, 0, 3, 2, 1, 1, 4, 0, 7, 1, 2, 6})
	f.Add([]byte{7, 2, 2, 1, 0, 1, 1, 5, 1, 0, 0, 9, 1, 1, 2, 3, 0, 4})

	const rows = 8
	vals := func(id int) (a, b, c int64) { return int64(id - 3), int64(5 - 2*id), int64(id * id % 7) }
	var eng *engine.Engine
	var sess *engine.Session
	f.Cleanup(func() {
		if eng != nil {
			eng.Close() //nolint:errcheck
		}
	})
	reopenEvery, execs := 2048, 0 // the engine's plan cache keeps every text it has seen
	reopen := func(t *testing.T) {
		if eng != nil {
			eng.Close() //nolint:errcheck
		}
		var err error
		if eng, err = engine.Open(engine.Config{}); err != nil {
			t.Fatal(err)
		}
		sess = eng.NewSession("fuzz", "fuzz")
		if _, err := sess.Exec("CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT, c INT)", nil); err != nil {
			t.Fatal(err)
		}
		for id := 0; id < rows; id++ {
			a, b, c := vals(id)
			if _, err := sess.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d, %d, %d)", id, a, b, c), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	re := NewEngine(newFakeEnv())

	f.Fuzz(func(t *testing.T, data []byte) {
		if execs%reopenEvery == 0 {
			reopen(t)
		}
		execs++
		g := condGen{data: data}
		id := g.next(rows)
		src := g.cond(3)

		cond, err := ParseCondition(src)
		if err != nil {
			t.Fatalf("generated condition does not parse: %q: %v", src, err)
		}
		a, b, c := vals(id)
		obj := &fakeObj{class: monitor.ClassQuery, attrs: map[string]sqltypes.Value{
			"a": sqltypes.NewInt(a), "b": sqltypes.NewInt(b), "c": sqltypes.NewInt(c),
		}}
		fired, err := re.evalCond(cond, &Ctx{Objects: map[string]monitor.Object{monitor.ClassQuery: obj}, Primary: obj})
		if err != nil {
			t.Fatalf("rule condition %q: %v", src, err)
		}
		res, err := sess.Exec(fmt.Sprintf("SELECT id FROM t WHERE id = %d AND (%s)", id, src), nil)
		if err != nil {
			t.Fatalf("SELECT … WHERE %q: %v", src, err)
		}
		if selected := len(res.Rows) == 1; selected != fired {
			t.Fatalf("%q over a=%d b=%d c=%d: rule fired=%v, WHERE selected=%v", src, a, b, c, fired, selected)
		}
	})
}
