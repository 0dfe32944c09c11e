package main

import (
	"os"
	"strings"
	"testing"

	"sqlcm/internal/analysis"
)

// The seeded-defect fixtures must make sqlcm-vet fail, with every
// analysis represented in the output.
func TestVetDetectsSeededDefects(t *testing.T) {
	var out, errw strings.Builder
	code := run([]string{"../../internal/rulecheck/testdata"}, &out, &errw)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
	}
	for _, analysis := range []string{"[type]", "[sat]", "[latref]", "[trigger]", "[shadow]"} {
		if !strings.Contains(out.String(), analysis) {
			t.Errorf("output missing %s finding:\n%s", analysis, out.String())
		}
	}
}

// The shipped example rule sets must pass even in strict mode, with no
// output at all.
func TestVetExamplesCleanStrict(t *testing.T) {
	var out, errw strings.Builder
	code := run([]string{"-mode", "strict", "../../examples/rulesets"}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
	}
	if out.Len() > 0 {
		t.Errorf("expected no findings, got:\n%s", out.String())
	}
}

// The repo's own source must satisfy the hot-path and recover-discipline
// analyzers.
func TestVetCodeClean(t *testing.T) {
	var out, errw strings.Builder
	code := run([]string{"-code", "../.."}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
	}
}

// -analyzers lists every registered -code analyzer, one per line, and
// exits 0.
func TestVetAnalyzersList(t *testing.T) {
	var out, errw strings.Builder
	code := run([]string{"-analyzers"}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstderr:\n%s", code, errw.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	all := analysis.All()
	if len(lines) != len(all) {
		t.Fatalf("listed %d analyzers, want %d:\n%s", len(lines), len(all), out.String())
	}
	for i, a := range all {
		if !strings.HasPrefix(lines[i], a.Name+" ") {
			t.Errorf("line %d = %q, want analyzer %s", i, lines[i], a.Name)
		}
	}
}

// Warnings alone pass in warn mode and fail in strict mode.
func TestVetModeStrictFailsOnWarnings(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir+"/warn.rules", `
rule always on Query.Commit {
    when 1 = 1
    sendmail "dba@example.com" "x"
}
`)
	var out, errw strings.Builder
	if code := run([]string{dir}, &out, &errw); code != 0 {
		t.Fatalf("warn mode exit = %d, want 0\n%s%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "always true") {
		t.Errorf("expected always-true warning, got:\n%s", out.String())
	}
	out.Reset()
	errw.Reset()
	if code := run([]string{"-mode", "strict", dir}, &out, &errw); code != 1 {
		t.Fatalf("strict mode exit = %d, want 1\n%s%s", code, out.String(), errw.String())
	}
}

func TestVetBadUsage(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"-mode", "bogus", "x.rules"}, &out, &errw); code != 2 {
		t.Errorf("bad mode exit = %d, want 2", code)
	}
	if code := run(nil, &out, &errw); code != 2 {
		t.Errorf("no args exit = %d, want 2", code)
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
