package analysis

import (
	"flag"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current analyzer output")

// TestSeededFixtureGoldens pins the exact diagnostics for one seeded
// defect per analyzer: an unguarded field access, an in-place COW
// mutation, the seeded lock bugs — order inversion, missing unlock, send
// and enqueue under a lock, unannotated mutex, cyclic declaration, a
// cross-package ordering edge proved through the sibling package's real
// facts, a nesting two same-package calls deep, and calls through an
// interface method or a function value under a latch — and misspelled,
// deleted and reasonless directives. Each fixture also carries the fixed
// shape of the same pattern, so the goldens prove both that the defect
// fires and that the repair silences it.
func TestSeededFixtureGoldens(t *testing.T) {
	cases := []string{
		"guardmiss",
		"cowinplace",
		"seededinversion",
		"missingunlock",
		"sendunderlock",
		"unannotated",
		"cycle",
		"enqueue",
		"crosssummary",
		"deepnesting",
		"callbackunderlock",
		"unknowndirective",
	}
	for _, name := range cases {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", name)
			diags, err := RunTree(dir)
			if err != nil {
				t.Fatalf("RunTree: %v", err)
			}
			var b strings.Builder
			for _, d := range diags {
				b.WriteString(filepath.ToSlash(d.String()) + "\n")
			}
			got := b.String()
			goldenPath := filepath.Join(dir, name+".golden")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatalf("update golden: %v", err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics differ from %s\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
			}
		})
	}
}

// TestAnnotatedTreeIsClean runs every analyzer over the repository and
// requires zero findings: the shipped tree must satisfy its own declared
// concurrency discipline and lock hierarchy. This is the same gate `make
// vet` enforces in CI; keeping it in the test suite means a plain `go
// test ./...` catches a regression before the vet step runs. The same
// load must carry the one cross-package lock edge the serving path has
// as a fact: acquiring a row/table lock through lock.Manager reaches the
// lock.manager latch.
func TestAnnotatedTreeIsClean(t *testing.T) {
	prog, err := LoadTree("../..")
	if err != nil {
		t.Fatalf("LoadTree: %v", err)
	}
	for _, d := range RunProgram(prog) {
		t.Errorf("unexpected finding: %s", d)
	}
	pkg := prog.PackageByPath("sqlcm/internal/lock")
	if pkg == nil {
		t.Fatal("sqlcm/internal/lock not loaded")
	}
	mgr, _ := pkg.Types.Scope().Lookup("Manager").Type().(*types.Named)
	for i := 0; mgr != nil && i < mgr.NumMethods(); i++ {
		if m := mgr.Method(i); m.Name() == "Acquire" {
			if got := pkg.Facts.LockClasses[m]; !slices.Contains(got, "lock.manager") {
				t.Errorf("LockClasses[(*lock.Manager).Acquire] = %v, want it to include %q", got, "lock.manager")
			}
			return
		}
	}
	t.Error("(*lock.Manager).Acquire not found")
}
