package rulecheck

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestGolden checks every seeded-defect fixture against its .golden file:
// the full, ordered diagnostic output of parsing plus Check. Regenerate
// with: go test ./internal/rulecheck -run TestGolden -update
func TestGolden(t *testing.T) {
	fixtures, err := filepath.Glob(filepath.Join("testdata", "*.rules"))
	if err != nil {
		t.Fatal(err)
	}
	if len(fixtures) == 0 {
		t.Fatal("no fixtures in testdata/")
	}
	for _, fixture := range fixtures {
		fixture := fixture
		t.Run(filepath.Base(fixture), func(t *testing.T) {
			src, err := os.ReadFile(fixture)
			if err != nil {
				t.Fatal(err)
			}
			var buf strings.Builder
			set, diags, err := ParseSet(string(src))
			if err != nil {
				fmt.Fprintf(&buf, "parse error: %v\n", err)
			} else {
				diags = append(diags, Check(nil, set)...)
				for _, d := range diags {
					fmt.Fprintf(&buf, "%s\n", d)
				}
			}
			got := buf.String()

			golden := strings.TrimSuffix(fixture, ".rules") + ".golden"
			if *updateGolden {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics changed.\n--- got ---\n%s--- want ---\n%s", got, want)
			}
			if got == "" {
				t.Error("fixture produced no diagnostics; every testdata fixture must seed a defect")
			}
		})
	}
}
