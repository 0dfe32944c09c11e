package rulecheck

import (
	"strings"
	"testing"
)

func mustParseSet(t *testing.T, src string) *Set {
	t.Helper()
	set, diags, err := ParseSet(src)
	if err != nil || len(diags) > 0 {
		t.Fatalf("ParseSet: %v %v", err, diags)
	}
	return set
}

// Check(live, add) reports what add brings: a live set full of broken
// rules yields no finding that names a live rule, while an added rule
// that repeats a live one or closes a cycle through it is named.
func TestCheckReportsOnlyAddedRules(t *testing.T) {
	live := mustParseSet(t, `
lat A {
    group_by LAT
    agg count as N
    order_by N desc
    max_rows 2
}

rule dead on Query.Commit {
    when Duration > 10 AND Duration < 5
    insert Missing
}

rule evict_a on LATRow.Evicted {
    insert A
}

rule evict_a2 on LATRow.Evicted {
    insert A
}
`)
	liveNames := map[string]bool{"dead": true, "evict_a": true, "evict_a2": true}
	named := map[string]bool{}
	for _, d := range Check(nil, live) {
		if d.Severity == Error {
			named[d.Rule] = true
		}
	}
	for name := range liveNames {
		if !named[name] {
			t.Fatalf("live set holds no error naming %s: %v", name, Check(nil, live))
		}
	}

	add := mustParseSet(t, `
lat B {
    group_by Query_Text
    agg count as N
    order_by N desc
    max_rows 2
}

rule clean on Query.Commit {
    when Duration > 5
    insert B
}

rule again on Query.Commit {
    when Duration > 10 AND Duration < 5
    insert Missing
}

rule evict_b on LATRow.Evicted {
    when LAT = 'A'
    insert A
}
`)
	diags := Check(live, add)
	var got []string
	for _, d := range diags {
		if liveNames[d.Rule] || d.Rule == "clean" {
			t.Errorf("finding names %s: %s", d.Rule, d)
		}
		got = append(got, d.String())
	}
	all := strings.Join(got, "\n")
	for _, want := range []string{
		`rule "again": [shadow] error: duplicate of rule "dead"`,
		`rule "again": [sat] error: condition is unsatisfiable`,
		`rule "again": [latref] error: Insert references LAT "Missing"`,
		`rule "evict_b": [trigger] error: synchronous trigger cycle`,
	} {
		if !strings.Contains(all, want) {
			t.Errorf("no finding %q in:\n%s", want, all)
		}
	}
}
