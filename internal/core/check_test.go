package core

import (
	"strings"
	"testing"

	"sqlcm/internal/engine"
	"sqlcm/internal/lat"
	"sqlcm/internal/rulecheck"
	"sqlcm/internal/rules"
)

func attachChecked(t *testing.T, mode rulecheck.Mode) *SQLCM {
	t.Helper()
	eng, err := engine.Open(engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := Attach(eng, Options{RuleCheck: mode})
	t.Cleanup(func() {
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

func mustDefineLAT(t *testing.T, s *SQLCM, spec lat.Spec) {
	t.Helper()
	if _, err := s.DefineLAT(spec); err != nil {
		t.Fatal(err)
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
