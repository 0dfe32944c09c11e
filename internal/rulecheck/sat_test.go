package rulecheck

import (
	"testing"

	"sqlcm/internal/monitor"
	"sqlcm/internal/rules"
)

func mustParse(t *testing.T, src string) *rules.Rule {
	e, err := rules.ParseCondition(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return &rules.Rule{Name: "r", Event: monitor.EvQueryCommit, Source: src, Condition: e,
		Actions: []rules.Action{&rules.FuncAction{Name: "f", Fn: func(rules.Env, *rules.Ctx) error { return nil }}}}
}

func TestSatAnalysis(t *testing.T) {
	cases := []struct {
		src       string
		dead      bool
		alwaysTru bool
	}{
		{"Duration > 10 AND Duration < 5", true, false},
		{"Duration > 10 AND Duration < 20", false, false},
		{"Duration > 5 OR Duration < 10", false, false}, // null makes it false; not always-true
		{"1 = 1", false, true},
		{"1 = 2", true, false},
		{"NOT (Duration > 5) AND NOT (Duration <= 5)", false, false}, // satisfiable by NULL
		{"Duration = 5 AND Duration != 5", true, false},
		{"Duration IS NULL AND Duration > 3", true, false},
		{"Duration IS NULL OR Duration IS NOT NULL", false, true},
		{"Time_Blocked >= 0 AND Time_Blocked <= -1", true, false},
		{"Duration > 2.5 AND Duration < 2.6", false, false},      // float: non-empty open interval
		{"Times_Blocked > 2 AND Times_Blocked < 3", true, false}, // int tightening
		{"User = 'alice' AND User != 'alice'", true, false},
		{"User = 'alice' AND User = 'bob'", true, false},
		{"Duration > 0.25", false, false},
		{"ID = 9007199254740993 AND ID != 9007199254740992", false, false}, // exact past 2^53
		{"ID > 9007199254740992 AND ID < 9007199254740993", true, false},
	}
	for _, tc := range cases {
		set := &Set{Rules: []*rules.Rule{mustParse(t, tc.src)}}
		diags := Check(nil, set)
		var dead, always bool
		for _, d := range diags {
			if d.Analysis == "sat" && d.Severity == Error {
				dead = true
			}
			if d.Analysis == "sat" && d.Severity == Warning {
				always = true
			}
		}
		if dead != tc.dead || always != tc.alwaysTru {
			t.Errorf("%q: dead=%v always=%v (want %v %v) diags=%v", tc.src, dead, always, tc.dead, tc.alwaysTru, diags)
		}
	}
}
