package main

import (
	"regexp"
	"sort"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func names(ms []metricSpec) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

func emitted(r *result) []string {
	var out []string
	for name := range r.Metrics {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	seen := map[string]int{}
	for _, n := range got {
		seen[n]++
	}
	for _, n := range want {
		seen[n] += 2
	}
	for n, v := range seen {
		switch v {
		case 1:
			t.Errorf("%s: %s is emitted and not declared in BENCHMARK.json", what, n)
		case 2:
			t.Errorf("%s: %s is declared in BENCHMARK.json and not emitted", what, n)
		}
	}
}

// TestSmoke runs every workload at a small size, traced and untraced, and
// holds the output to what BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	sort.Strings(declared)
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	sort.Strings(have)
	sameNames(t, "workloads", have, declared)
	for _, n := range append(append(declared, names(spec.EndToEnd)...), names(spec.PerLayer)...) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q has characters outside [A-Za-z0-9_.-]", n)
		}
	}

	for _, wl := range workloads {
		// About 2 000 statements a traced run: 2 connections × 3 phases × 330.
		cfg := config{wl: wl, seed: 3, seconds: 30, sc: smallScale, maxStmts: 330, warmup: 100, setups: 2, outDir: t.TempDir()}
		cfg.traced = true
		res, err := run(cfg)
		if err != nil {
			t.Fatalf("%s traced: %v", wl.name, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s traced: %d of %d statements failed, checks: %v", wl.name, res.Failed, res.Attempted, res.Notes)
		}
		sameNames(t, wl.name+" per-layer metrics", emitted(res), names(spec.PerLayer))
		if v := res.Metrics["trace.orphan_spans"].Value; v != 0 {
			t.Errorf("%s: %v orphan spans", wl.name, v)
		}
		if v := res.Metrics["trace.self_sum_error_pct"].Value; v > 2 {
			t.Errorf("%s: self times are %.2f %% off the client.stmt time, want within 2 %%", wl.name, v)
		}
		for _, m := range spec.PerLayer {
			if got := res.Metrics[m.Name].Unit; got != m.Unit {
				t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", wl.name, m.Name, got, m.Unit)
			}
		}

		cfg.traced = false
		res, err = run(cfg)
		if err != nil {
			t.Fatalf("%s untraced: %v", wl.name, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s untraced: %d of %d statements failed, checks: %v", wl.name, res.Failed, res.Attempted, res.Notes)
		}
		sameNames(t, wl.name+" end-to-end metrics", emitted(res), names(spec.EndToEnd))
		for _, m := range spec.EndToEnd {
			got := res.Metrics[m.Name]
			if got.Unit != m.Unit || got.Value <= 0 {
				t.Errorf("%s: %s = %v %q, want a positive value in %q", wl.name, m.Name, got.Value, got.Unit, m.Unit)
			}
		}
	}
}
