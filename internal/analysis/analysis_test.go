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

func TestHotPathFlagsClockAndFmt(t *testing.T) {
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
		"call to fmt.Sprintf in hot-path function dispatch",
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

func TestRecoveredCallbackOutsideRecover(t *testing.T) {
	diags := analyzeSrc(t, `package x

//sqlcm:callback
func evalRule() {}

func dispatch() {
	evalRule()
}
`)
	wantFindings(t, diags, "rule callback evalRule invoked from dispatch")
}

func TestRecoveredDisciplineSatisfied(t *testing.T) {
	diags := analyzeSrc(t, `package x

//sqlcm:callback
func evalRule() {}

//sqlcm:recovered
func safeEval() {
	defer func() {
		if p := recover(); p != nil {
			_ = p
		}
	}()
	evalRule()
}

func dispatch() { safeEval() }
`)
	wantFindings(t, diags)
}

func TestRecoveredMarkerWithoutRecover(t *testing.T) {
	diags := analyzeSrc(t, `package x

//sqlcm:recovered
func safeEval() {}
`)
	wantFindings(t, diags, "marked //sqlcm:recovered but never defers a recover()")
}

func TestCallbackMayCallCallback(t *testing.T) {
	diags := analyzeSrc(t, `package x

//sqlcm:callback
func runActions() {}

//sqlcm:callback
func evalRule() { runActions() }

//sqlcm:recovered
func safeEval() {
	defer func() { recover() }()
	evalRule()
}
`)
	wantFindings(t, diags)
}

// The callback fact crosses package boundaries: invoking another
// package's //sqlcm:callback function without the recover discipline is
// still a finding.
func TestCallbackFactCrossesPackages(t *testing.T) {
	diags := analyzeTree(t, map[string]string{
		"cb/cb.go": `package cb

//sqlcm:callback
func EvalRule() {}
`,
		"driver/driver.go": `package driver

import "cb"

func dispatch() { cb.EvalRule() }
`,
	})
	wantFindings(t, diags, "rule callback EvalRule invoked from dispatch")
}

func TestCtxPropStrictPackageDirective(t *testing.T) {
	diags := analyzeSrc(t, `// Package x is the fixture serving path.
//
//sqlcm:ctx-strict
package x

import "context"

func mint() context.Context {
	return context.Background()
}

//sqlcm:ctx-root the fixture's sanctioned fresh lifetime
func root() context.Context {
	return context.Background()
}
`)
	wantFindings(t, diags, "context.Background in ctx-strict package x outside a //sqlcm:ctx-root function")
}

func TestCtxPropMintWithContextInHand(t *testing.T) {
	diags := analyzeSrc(t, `package x

import "context"

func handle(ctx context.Context) context.Context {
	_ = ctx
	return context.TODO()
}
`)
	wantFindings(t, diags, "handle already receives a context: pass it instead of minting context.TODO")
}

func TestCtxPropContextlessSibling(t *testing.T) {
	diags := analyzeSrc(t, `package x

import "context"

type store struct{}

func (s *store) Flush() error                            { return nil }
func (s *store) FlushContext(ctx context.Context) error { return ctx.Err() }

func handle(ctx context.Context, s *store) error {
	_ = ctx
	return s.Flush()
}
`)
	wantFindings(t, diags, "handle holds a context but calls the context-less variant: call FlushContext")
}

func TestCancelPointTransitiveThroughCallee(t *testing.T) {
	diags := analyzeSrc(t, `package x

import "context"

// poll checks the context itself, so callers inherit cancel capability.
func poll(ctx context.Context) error { return ctx.Err() }

//sqlcm:cancellable
func drain(ctx context.Context, rows []int) error {
	for range rows {
		if err := poll(ctx); err != nil {
			return err
		}
	}
	return nil
}
`)
	wantFindings(t, diags)
}

func TestCancelPointAnnotatedInterfaceMethod(t *testing.T) {
	diags := analyzeSrc(t, `package x

type iter interface {
	// Next polls the statement's cancellation flag each call.
	//
	//sqlcm:cancelpoint
	Next() (int, bool)
}

//sqlcm:cancellable
func drain(it iter) int {
	total := 0
	for {
		v, ok := it.Next()
		if !ok {
			return total
		}
		total += v
	}
}
`)
	wantFindings(t, diags)
}

func TestGoOwnershipSelfOwnedNamedCallee(t *testing.T) {
	diags := analyzeSrc(t, `package x

type conn struct {
	stop chan struct{}
}

// loop blocks on the stop channel: the goroutine owns its exit.
func (c *conn) loop() {
	<-c.stop
}

func (c *conn) start() {
	go c.loop()
}
`)
	wantFindings(t, diags)
}

func TestGoOwnershipOrphanFlagged(t *testing.T) {
	diags := analyzeSrc(t, `package x

func work() {}

func fire() {
	go work()
}
`)
	wantFindings(t, diags, "goroutine has no owner")
}

func TestErrCodeAllowDirective(t *testing.T) {
	diags := analyzeSrc(t, `package x

// legacyCode documents the one grandfathered literal.
//
//sqlcm:allow exercised by the fixture, not shipped
const legacyCode = "40001"
`)
	wantFindings(t, diags)
}
