package sqlcm

import (
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"sqlcm/internal/rules"
	"sqlcm/internal/workload"
)

// TestLoadRuleSet drives the declarative rule-set path end to end: the
// shipped quickstart rule set is loaded into a live DB, a workload runs,
// and both the LAT it defines and the persist rule it installs must have
// observed traffic.
func TestLoadRuleSet(t *testing.T) {
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	src, err := os.ReadFile("examples/rulesets/quickstart.rules")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.LoadRuleSet(string(src)); err != nil {
		t.Fatalf("LoadRuleSet: %v", err)
	}
	if diags := db.RuleWarnings(); len(diags) != 0 {
		t.Fatalf("shipped rule set produced diagnostics: %v", diags)
	}

	if _, err := db.Exec("CREATE TABLE t (id INT PRIMARY KEY, v FLOAT)", nil); err != nil {
		t.Fatal(err)
	}
	sess := db.Session("alice", "loadruleset")
	for i := 1; i <= 20; i++ {
		if _, err := sess.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d.5)", i, i), nil); err != nil {
			t.Fatal(err)
		}
	}

	lat, ok := db.LAT("ByTemplate")
	if !ok {
		t.Fatal("LAT ByTemplate not defined by rule set")
	}
	if rows := lat.Rows(); len(rows) == 0 {
		t.Error("ByTemplate LAT saw no traffic")
	}

	// A defective set must be rejected wholesale in strict mode.
	strict, err := Open(Config{RuleCheck: RuleCheckStrict})
	if err != nil {
		t.Fatal(err)
	}
	defer strict.Close()
	bad := `
rule dead on Query.Commit {
    when Duration > 10 AND Duration < 5
    sendmail "dba@example.com" "never"
}
`
	if err := strict.LoadRuleSet(bad); err == nil {
		t.Error("strict mode accepted a rule set with a dead rule")
	} else if !strings.Contains(err.Error(), "unsatisfiable") {
		t.Errorf("rejection should name the finding, got: %v", err)
	}
}

// TestUnsatRulesNeverFire is the soundness property behind the sat
// analysis: any rule the checker marks unsatisfiable must never fire, no
// matter what the workload does. Each candidate rule counts its firings
// through a FuncAction; the rules the checker flags with a [sat] error
// must end every randomized workload run at zero, while at least one
// satisfiable control rule must have fired (so a silently dead event path
// cannot make the property pass vacuously).
func TestUnsatRulesNeverFire(t *testing.T) {
	conds := []string{
		// Candidates the checker should prove dead.
		"Duration > 10 AND Duration < 5",
		"Times_Blocked > 2 AND Times_Blocked < 3",
		"Duration < 0 AND Duration > 0",
		"User = 'alice' AND User = 'bob'",
		// Satisfiable controls; the first two hold for every query.
		"Duration >= 0",
		"Times_Blocked >= 0",
		"Duration > 100000",
	}

	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			db, err := Open(Config{RuleCheck: RuleCheckWarn})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()

			fired := make([]atomic.Int64, len(conds))
			for i, cond := range conds {
				i := i
				name := fmt.Sprintf("cand%d", i)
				_, err := db.NewRule(name, "Query.Commit", cond, &FuncAction{
					Name: name,
					Fn:   func(rules.Env, *rules.Ctx) error { fired[i].Add(1); return nil },
				})
				if err != nil {
					t.Fatalf("rule %q: %v", cond, err)
				}
			}

			// Classify by the checker's verdict, not by our own
			// expectations: the property under test is "marked unsat ⇒
			// never fires".
			unsat := make([]bool, len(conds))
			marked := 0
			for _, d := range db.RuleWarnings() {
				if d.Analysis != "sat" || !strings.Contains(d.Message, "unsatisfiable") {
					continue
				}
				var i int
				if _, err := fmt.Sscanf(d.Rule, "cand%d", &i); err == nil && i < len(conds) {
					unsat[i] = true
					marked++
				}
			}
			if marked < 3 {
				t.Fatalf("checker marked only %d rules unsatisfiable; expected at least 3 (diags: %v)",
					marked, db.RuleWarnings())
			}

			cfg, err := workload.Setup(db.Engine(), workload.Config{
				Lineitems: 400, ShortQueries: 60, JoinQueries: 3, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := workload.Run(db.Engine(), workload.Mix(cfg), "prop", "rulecheck"); err != nil {
				t.Fatal(err)
			}

			sawControl := false
			for i, cond := range conds {
				n := fired[i].Load()
				if unsat[i] && n != 0 {
					t.Errorf("rule marked unsatisfiable fired %d times: %s", n, cond)
				}
				if !unsat[i] && n > 0 {
					sawControl = true
				}
			}
			if !sawControl {
				t.Error("no satisfiable control rule fired; the workload did not exercise Query.Commit")
			}
		})
	}
}
