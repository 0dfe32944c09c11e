package main

import (
	"strings"
	"sync"
	"testing"

	"sqlcm"
)

// smallScale is the data size the tests run on.
var smallScale = scale{lineitems: 2000, orders: 500, parts: 100}

func TestRuleSetIsCleanUnderStrictAnalysis(t *testing.T) {
	db, err := sqlcm.Open(sqlcm.Config{RuleCheck: sqlcm.RuleCheckStrict})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close() //nolint:errcheck
	if err := db.LoadRuleSet(benchRules); err != nil {
		t.Fatalf("bench.rules rejected: %v", err)
	}
	for _, d := range append(db.CheckRules(), db.RuleWarnings()...) {
		t.Errorf("finding: %v", d)
	}
}

// The four filter rules are the "many rules, few fire" part of the load:
// evaluated on every Query.Commit, true on none.
func TestFilterRulesNeverFire(t *testing.T) {
	wl, _ := findWorkload("oltp_mixed_mon_on")
	e, err := setup(config{wl: wl, seed: 7, sc: smallScale, warmup: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	var mu sync.Mutex
	evaluated, fired := map[string]int{}, map[string]int{}
	e.db.Monitor().Rules().SetEvalObserver(func(rule string, f bool) {
		mu.Lock()
		evaluated[rule]++
		if f {
			fired[rule]++
		}
		mu.Unlock()
	})
	e.measure(0, 400, nil)
	e.db.Monitor().Rules().SetEvalObserver(nil)

	filters := 0
	for rule, n := range evaluated {
		if !strings.HasPrefix(rule, "filter_") {
			continue
		}
		filters++
		if n == 0 || fired[rule] != 0 {
			t.Errorf("%s: evaluated %d times, fired %d times; want >0 and 0", rule, n, fired[rule])
		}
	}
	if filters != 4 {
		t.Errorf("%d filter rules were evaluated, want 4", filters)
	}
	for _, rule := range []string{"maintain", "txn"} {
		if fired[rule] == 0 {
			t.Errorf("%s never fired: the mini-run did not exercise the rule set", rule)
		}
	}
}
