package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "stmt_p50_us", Better: "lower", Bound: 0.05}
	higher := metricSpec{Name: "throughput_stmts_s", Better: "higher", Bound: 0.05}
	steady := func(v float64) []float64 { return []float64{v * 0.999, v, v, v * 1.001, v} }
	noisy := func(v float64) []float64 { return []float64{v * 0.8, v * 0.9, v, v * 1.1, v * 1.2} }
	for _, tc := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"latency up 10 %", lower, steady(100), steady(110), verdictWorse},
		{"latency down 10 %", lower, steady(100), steady(90), verdictBetter},
		{"latency up 3 %", lower, steady(100), steady(103), verdictWithin},
		{"throughput down 10 %", higher, steady(1000), steady(900), verdictWorse},
		{"throughput up 10 %", higher, steady(1000), steady(1100), verdictBetter},
		{"throughput down 3 %", higher, steady(1000), steady(970), verdictWithin},
		{"no change, A too noisy to tell", lower, noisy(100), steady(100), verdictUnresolved},
		{"better, but B too noisy to tell", lower, steady(100), noisy(90), verdictUnresolved},
		{"worse beyond the bound even when noisy", lower, steady(100), noisy(120), verdictWorse},
		{"single runs have no spread", lower, []float64{100}, []float64{101}, verdictWithin},
	} {
		if got := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	write := func(path, content string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(spec, `{"workloads":[{"name":"w"}],"end_to_end":[
		{"name":"lat","unit":"us","better":"lower","bound":0.05},
		{"name":"tput","unit":"1/s","better":"higher","bound":0.05}]}`)
	line := func(trace int, lat, tput string) string {
		return `{"workload":"w","trace":` + string(rune('0'+trace)) +
			`,"metrics":{"lat":{"value":` + lat + `,"unit":"us"},"tput":{"value":` + tput + `,"unit":"1/s"}}}` + "\n"
	}
	a, b := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
	// The traced line must be ignored: its numbers would read as a regression.
	write(a, line(0, "100", "1000")+line(0, "101", "1001")+line(1, "500", "10"))
	write(b, line(0, "120", "1002")+line(0, "121", "1003"))

	var out bytes.Buffer
	worse, err := compareFiles(&out, spec, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !worse {
		t.Errorf("latency rose 20 %% and compare did not say worse:\n%s", out.String())
	}
	if n := strings.Count(out.String(), "\n"); n != 3 {
		t.Errorf("want a header and one row per metric, got %d lines:\n%s", n, out.String())
	}
	out.Reset()
	if worse, err = compareFiles(&out, spec, a, a); err != nil || worse {
		t.Errorf("a file against itself: worse=%v err=%v\n%s", worse, err, out.String())
	}
	if _, err = compareFiles(&out, spec, a, filepath.Join(dir, "missing.jsonl")); err == nil {
		t.Error("a missing file is not an error")
	}
}
