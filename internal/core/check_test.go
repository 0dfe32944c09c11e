package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"sqlcm/internal/engine"
	"sqlcm/internal/lat"
	"sqlcm/internal/rulecheck"
	"sqlcm/internal/rules"
)

func attachChecked(tb testing.TB, mode rulecheck.Mode) *SQLCM {
	tb.Helper()
	eng, err := engine.Open(engine.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	s := Attach(eng, Options{RuleCheck: mode})
	tb.Cleanup(func() {
		s.Detach()
		eng.Close()
	})
	return s
}

// boundedLAT is a LAT that evicts, so inserting into it can re-dispatch
// LATRow.Evicted on the inserting thread.
func boundedLAT(name string) lat.Spec {
	return lat.Spec{
		Name:    name,
		GroupBy: []string{"LAT"},
		Aggs:    []lat.AggCol{{Func: lat.Count, Name: "N"}},
		OrderBy: []lat.OrderKey{{Col: "N", Desc: true}},
		MaxRows: 2,
	}
}

func mustDefineLAT(tb testing.TB, s *SQLCM, spec lat.Spec) {
	tb.Helper()
	if _, err := s.DefineLAT(spec); err != nil {
		tb.Fatal(err)
	}
}

// errorsNaming returns the error-severity findings of one analysis that
// name rule.
func errorsNaming(diags []rulecheck.Diagnostic, rule, analysis string) []rulecheck.Diagnostic {
	var out []rulecheck.Diagnostic
	for _, d := range diags {
		if d.Rule == rule && d.Analysis == analysis && d.Severity == rulecheck.Error {
			out = append(out, d)
		}
	}
	return out
}

// Two eviction rules that each insert into a bounded LAT both lie on a
// synchronous trigger cycle; the second one must be named too, though the
// first one's cycle diagnostic is the same before and after it arrives.
func TestCheckRulesNamesEveryRuleOnASyncCycle(t *testing.T) {
	s := attachChecked(t, rulecheck.Warn)
	mustDefineLAT(t, s, boundedLAT("A"))
	mustDefineLAT(t, s, boundedLAT("B"))
	for _, r := range []struct{ name, lat string }{{"evict_a", "A"}, {"evict_b", "B"}} {
		if _, err := s.NewRule(r.name, "LATRow.Evicted", "", &rules.InsertAction{LAT: r.lat}); err != nil {
			t.Fatalf("Warn mode rejected %s: %v", r.name, err)
		}
	}
	diags := s.CheckRules()
	for _, name := range []string{"evict_a", "evict_b"} {
		if len(errorsNaming(diags, name, "trigger")) == 0 {
			t.Errorf("no [trigger] error names %s; findings: %v", name, diags)
		}
	}
}

// A file that fails to install leaves nothing behind, so a retry after
// the conflict is resolved succeeds.
func TestLoadRuleSetInstallsAllOrNothing(t *testing.T) {
	s := attachChecked(t, rulecheck.Warn)
	live := &rules.SendMailAction{Address: "dba", Text: "x"}
	if _, err := s.NewRule("taken", "Query.Commit", "", live); err != nil {
		t.Fatal(err)
	}
	const file = `
lat Fresh {
    group_by Query_Text
    agg count as N
}

rule first on Query.Commit {
    insert Fresh
}

rule taken on Query.Commit {
    insert Fresh
}
`
	err := s.LoadRuleSet(file)
	if err == nil || !strings.Contains(err.Error(), `duplicate rule "taken"`) {
		t.Fatalf("LoadRuleSet = %v, want the duplicate rule error", err)
	}
	if _, ok := s.LAT("Fresh"); ok {
		t.Error("rejected file left LAT Fresh installed")
	}
	if _, ok := s.Rules().Rule("first"); ok {
		t.Error("rejected file left rule first installed")
	}
	if r, ok := s.Rules().Rule("taken"); !ok || r.Actions[0] != live {
		t.Error("rejected file disturbed the live rule taken")
	}
	s.RemoveRule("taken")
	if err := s.LoadRuleSet(file); err != nil {
		t.Fatalf("retry after removing the conflict: %v", err)
	}
}

// Strict registration judges the candidate by the findings that name it.
func TestStrictRegistration(t *testing.T) {
	mail := &rules.SendMailAction{Address: "dba", Text: "x"}

	t.Run("own error", func(t *testing.T) {
		s := attachChecked(t, rulecheck.Strict)
		_, err := s.NewRule("dead", "Query.Commit", "Duration > 10 AND Duration < 5", mail)
		if err == nil || !strings.Contains(err.Error(), "[sat]") || !strings.Contains(err.Error(), "unsatisfiable") {
			t.Fatalf("NewRule = %v, want a rejection naming the [sat] finding", err)
		}
		if _, ok := s.Rules().Rule("dead"); ok {
			t.Error("rejected rule was installed")
		}
	})

	t.Run("closes a sync cycle", func(t *testing.T) {
		s := attachChecked(t, rulecheck.Strict)
		// evict_a is admitted while A is unbounded; bounding A afterwards
		// puts it on a cycle the live set already holds.
		mustDefineLAT(t, s, lat.Spec{Name: "A", GroupBy: []string{"LAT"}, Aggs: []lat.AggCol{{Func: lat.Count, Name: "N"}}})
		if _, err := s.NewRule("evict_a", "LATRow.Evicted", "", &rules.InsertAction{LAT: "A"}); err != nil {
			t.Fatal(err)
		}
		s.DropLAT("A")
		mustDefineLAT(t, s, boundedLAT("A"))
		mustDefineLAT(t, s, boundedLAT("B"))
		_, err := s.NewRule("evict_b", "LATRow.Evicted", "", &rules.InsertAction{LAT: "B"})
		if err == nil || !strings.Contains(err.Error(), `rule "evict_b": [trigger] error: synchronous trigger cycle`) {
			t.Fatalf("NewRule = %v, want a rejection naming evict_b's trigger cycle", err)
		}
	})

	t.Run("others' errors do not block", func(t *testing.T) {
		s := attachChecked(t, rulecheck.Strict)
		withD := lat.Spec{Name: "L", GroupBy: []string{"Query_Text"},
			Aggs: []lat.AggCol{{Func: lat.Avg, Attr: "Duration", Name: "D"}}}
		mustDefineLAT(t, s, withD)
		if _, err := s.NewRule("reader", "Query.Commit", "Duration > L.D", mail); err != nil {
			t.Fatal(err)
		}
		// Redefine L without the column reader reads.
		s.DropLAT("L")
		withD.Aggs = []lat.AggCol{{Func: lat.Count, Name: "N"}}
		mustDefineLAT(t, s, withD)
		if len(errorsNaming(s.CheckRules(), "reader", "type")) == 0 {
			t.Fatalf("live set holds no error naming reader: %v", s.CheckRules())
		}
		if _, err := s.NewRule("clean", "Query.Commit", "Duration > 5", mail); err != nil {
			t.Fatalf("clean rule blocked by another rule's finding: %v", err)
		}
	})
}

// A Strict LoadRuleSet judges the file by the findings that name what it
// adds, as AddRule judges its candidate: a live rule's error neither
// blocks a clean file nor lets a broken one in.
func TestStrictLoadRuleSetJudgesOnlyTheFile(t *testing.T) {
	s := attachChecked(t, rulecheck.Strict)
	withD := lat.Spec{Name: "L", GroupBy: []string{"Query_Text"},
		Aggs: []lat.AggCol{{Func: lat.Avg, Attr: "Duration", Name: "D"}}}
	mustDefineLAT(t, s, withD)
	if _, err := s.NewRule("reader", "Query.Commit", "Duration > L.D",
		&rules.SendMailAction{Address: "dba", Text: "x"}); err != nil {
		t.Fatal(err)
	}
	s.DropLAT("L")
	withD.Aggs = []lat.AggCol{{Func: lat.Count, Name: "N"}}
	mustDefineLAT(t, s, withD)
	if len(errorsNaming(s.CheckRules(), "reader", "type")) == 0 {
		t.Fatalf("live set holds no error naming reader: %v", s.CheckRules())
	}

	const clean = `
rule clean on Query.Commit {
    when Duration > 5
    sendmail "dba" "slow"
}
`
	if err := s.LoadRuleSet(clean); err != nil {
		t.Fatalf("clean file blocked by a live rule's finding: %v", err)
	}
	if _, ok := s.Rules().Rule("clean"); !ok {
		t.Error("clean file's rule is not installed")
	}

	const broken = `
lat Fresh {
    group_by Query_Text
    agg count as N
}

rule dead on Query.Commit {
    when Duration > 10 AND Duration < 5
    insert Fresh
}
`
	err := s.LoadRuleSet(broken)
	if err == nil || !strings.Contains(err.Error(), `rule "dead": [sat] error`) {
		t.Fatalf("LoadRuleSet = %v, want a rejection naming dead's [sat] finding", err)
	}
	if strings.Contains(err.Error(), "reader") {
		t.Errorf("rejection names the live rule reader: %v", err)
	}
	if _, ok := s.LAT("Fresh"); ok {
		t.Error("rejected file left LAT Fresh installed")
	}
	if _, ok := s.Rules().Rule("dead"); ok {
		t.Error("rejected file left rule dead installed")
	}
}

// Strict registrations and CheckRules from several goroutines at once
// share the live rule slice and each rule's memoised canonical condition.
func TestStrictRegistrationConcurrent(t *testing.T) {
	s := attachChecked(t, rulecheck.Strict)
	mail := &rules.SendMailAction{Address: "dba", Text: "x"}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := s.NewRule(fmt.Sprintf("g%d_%d", g, i), "Query.Commit",
					fmt.Sprintf("Duration > %d", 100*g+i), mail); err != nil {
					t.Error(err)
					return
				}
				s.CheckRules()
			}
		}()
	}
	wg.Wait()
	if diags := s.CheckRules(); len(s.Rules().Rules()) != 100 || len(diags) != 0 {
		t.Errorf("%d rules installed, findings %v; want 100 and none", len(s.Rules().Rules()), diags)
	}
}

// registerSession registers a session of E-FIG2's largest size: n bounded
// LATs, each with one 5-atom Query.Commit rule that inserts into it. The
// conditions differ, so every candidate is compared with every live rule
// for shadowing.
func registerSession(tb testing.TB, s *SQLCM, n int) {
	tb.Helper()
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("L%d", i)
		mustDefineLAT(tb, s, lat.Spec{
			Name:    name,
			GroupBy: []string{"ID"},
			Aggs:    []lat.AggCol{{Func: lat.Last, Attr: "Duration", Name: "D"}},
			OrderBy: []lat.OrderKey{{Col: "D", Desc: true}},
			MaxRows: 10,
		})
		cond := fmt.Sprintf("Duration > %d AND Duration < %d AND Times_Blocked >= 0 AND User != 'u%d' AND Estimated_Cost < %d",
			i, i+1000, i, i+1)
		if _, err := s.NewRule(fmt.Sprintf("r%d", i), "Query.Commit", cond, &rules.InsertAction{LAT: name}); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkStrictRegistration registers the 1000-rule session in Strict
// mode; a check that re-analyses the whole live set per candidate makes
// this quadratic.
func BenchmarkStrictRegistration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		registerSession(b, attachChecked(b, rulecheck.Strict), 1000)
	}
}

// TestStrictTransactionQualifier: TRANSACTION is an SQL keyword, yet
// Transaction.Attr in a condition names the monitored class, as the bare
// attribute would. A Strict rule on Transaction.Commit written that way
// registers without a finding and fires on the commits it selects.
func TestStrictTransactionQualifier(t *testing.T) {
	s := attachChecked(t, rulecheck.Strict)
	mustDefineLAT(t, s, lat.Spec{Name: "Txns", GroupBy: []string{"User"},
		Aggs: []lat.AggCol{{Func: lat.Count, Name: "N"}}})
	if _, err := s.NewRule("txns", "Transaction.Commit",
		"Transaction.Duration >= 0 AND Transaction.ID > 0 AND Transaction.User = 'dba'",
		&rules.InsertAction{LAT: "Txns"}); err != nil {
		t.Fatal(err)
	}
	for _, d := range s.CheckRules() {
		if d.Rule == "txns" {
			t.Errorf("finding on the rule: %v", d)
		}
	}
	dba, other := s.Engine().NewSession("dba", "app"), s.Engine().NewSession("other", "app")
	for _, step := range []struct {
		sess *engine.Session
		sql  string
	}{
		{dba, "CREATE TABLE t (id INT PRIMARY KEY)"},
		{dba, "INSERT INTO t VALUES (1)"},
		{other, "INSERT INTO t VALUES (2)"},
		{dba, "INSERT INTO t VALUES (3)"},
	} {
		if _, err := step.sess.Exec(step.sql, nil); err != nil {
			t.Fatal(err)
		}
	}
	lt, _ := s.LAT("Txns")
	if rows := lt.Rows(); len(rows) != 1 || rows[0][0].Str() != "dba" || rows[0][1].Int() != 2 {
		t.Fatalf("Txns = %v, want only dba's two INSERT commits", rows)
	}
}
