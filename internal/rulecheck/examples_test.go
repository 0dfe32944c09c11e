package rulecheck

import (
	"os"
	"path/filepath"
	"testing"
)

// The shipped example rule sets must be clean: no errors, no warnings.
// They double as end-to-end fixtures for the .rules parser.
func TestExampleRulesetsAreClean(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "rulesets")
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read %s: %v", dir, err)
	}
	var n int
	for _, ent := range ents {
		if ent.IsDir() || filepath.Ext(ent.Name()) != ".rules" {
			continue
		}
		n++
		t.Run(ent.Name(), func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join(dir, ent.Name()))
			if err != nil {
				t.Fatal(err)
			}
			set, diags, err := ParseSet(string(src))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if len(diags) > 0 {
				t.Fatalf("parse diagnostics: %v", diags)
			}
			for _, d := range Check(nil, set) {
				t.Errorf("unexpected finding: %s", d)
			}
		})
	}
	if n == 0 {
		t.Fatal("no .rules files found")
	}
}
