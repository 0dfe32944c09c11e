package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// analyzeSrc type-checks one source file as its own package in a temp
// tree and returns every analyzer finding.
func analyzeSrc(t *testing.T, src string) []Diagnostic {
	t.Helper()
	return analyzeTree(t, map[string]string{"fixture.go": src})
}

// analyzeTree lays out the given files (paths relative to the tree root)
// and runs the full driver over them.
func analyzeTree(t *testing.T, files map[string]string) []Diagnostic {
	t.Helper()
	dir := t.TempDir()
	for rel, src := range files {
		writeFixture(t, dir, rel, src)
	}
	diags, err := RunTree(dir)
	if err != nil {
		t.Fatalf("RunTree: %v", err)
	}
	return diags
}

func writeFixture(t *testing.T, dir, rel, src string) {
	t.Helper()
	path := filepath.Join(dir, rel)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatalf("write fixture: %v", err)
	}
}

func wantFindings(t *testing.T, diags []Diagnostic, substrs ...string) {
	t.Helper()
	if len(diags) != len(substrs) {
		t.Fatalf("got %d findings, want %d:\n%v", len(diags), len(substrs), diags)
	}
	for i, want := range substrs {
		if !strings.Contains(diags[i].String(), want) {
			t.Errorf("finding %d = %q, want substring %q", i, diags[i], want)
		}
	}
}

// Only the clock reads are findings: allocation on the hot path is pinned
// by TestMonitoredPointReadAllocs, which sees every allocation, not only
// fmt's.
func TestHotPathFlagsClockReads(t *testing.T) {
	diags := analyzeSrc(t, `package x

import (
	"fmt"
	"time"
)

//sqlcm:hotpath
func dispatch() {
	start := time.Now()
	_ = fmt.Sprintf("%v", start)
	_ = time.Since(start)
}
`)
	wantFindings(t, diags,
		"call to time.Now in hot-path function dispatch",
		"call to time.Since in hot-path function dispatch",
	)
}

func TestHotPathIgnoresUnmarkedFunctions(t *testing.T) {
	diags := analyzeSrc(t, `package x

import "time"

func cold() { _ = time.Now() }
`)
	wantFindings(t, diags)
}

func TestHotPathAllowDirective(t *testing.T) {
	diags := analyzeSrc(t, `package x

import "time"

//sqlcm:hotpath
func dispatch() {
	start := time.Now() //sqlcm:allow gated behind an armed budget
	//sqlcm:allow same, line above the call
	_ = time.Since(start)
}
`)
	wantFindings(t, diags)
}

// With go/types behind the qualifier check, a local variable shadowing a
// package name can no longer produce a false positive.
func TestHotPathLocalVariableNotConfusedWithPackage(t *testing.T) {
	diags := analyzeSrc(t, `package x

type clock struct{}

func (clock) Now() int { return 0 }

//sqlcm:hotpath
func dispatch() {
	var time clock
	_ = time.Now()
}
`)
	wantFindings(t, diags)
}
