package analysis

import (
	"strings"
	"testing"
)

// The lock-hierarchy analyzer (lockorder: order, balance, sends under a
// lock, classes) over in-memory packages: one case per walk feature.

const lockHeader = `package x

import "sync"

type guarded struct {
	//sqlcm:lock x.a
	a sync.Mutex
	//sqlcm:lock x.b after x.a
	b sync.Mutex
	ch chan int
}
`

func TestLockDeclaredOrderAccepted(t *testing.T) {
	wantFindings(t, analyzeSrc(t, lockHeader+`
func (g *guarded) ok() {
	g.a.Lock()
	g.b.Lock()
	g.b.Unlock()
	g.a.Unlock()
}
`))
}

func TestLockInversionFlagged(t *testing.T) {
	wantFindings(t, analyzeSrc(t, lockHeader+`
func (g *guarded) bad() {
	g.b.Lock()
	g.a.Lock()
	g.a.Unlock()
	g.b.Unlock()
}
`), `acquiring "x.a" while holding "x.b"`)
}

func TestLockTryLockIsAnAcquire(t *testing.T) {
	wantFindings(t, analyzeSrc(t, lockHeader+`
func (g *guarded) bad() {
	g.b.Lock()
	if g.a.TryLock() {
		g.a.Unlock()
	}
	g.b.Unlock()
}
`), `acquiring "x.a" while holding "x.b"`)
}

func TestLockRWMutexSharesClass(t *testing.T) {
	wantFindings(t, analyzeSrc(t, `package x

import "sync"

type g2 struct {
	//sqlcm:lock x.rw
	rw sync.RWMutex
	//sqlcm:lock x.m after x.rw
	m sync.Mutex
}

func (g *g2) bad() {
	g.m.Lock()
	g.rw.RLock()
	g.rw.RUnlock()
	g.m.Unlock()
}
`), `acquiring "x.rw" while holding "x.m"`)
}

func TestLockInterproceduralSummary(t *testing.T) {
	// callee locks x.b; calling it while holding x.a is legal (a -> b),
	// while holding x.b is a same-class double acquire.
	wantFindings(t, analyzeSrc(t, lockHeader+`
func (g *guarded) lockB() {
	g.b.Lock()
	g.b.Unlock()
}

func (g *guarded) ok() {
	g.a.Lock()
	g.lockB()
	g.a.Unlock()
}

func (g *guarded) bad() {
	g.b.Lock()
	g.lockB()
	g.b.Unlock()
}
`), `call to guarded.lockB acquires "x.b" which is already held`)
}

func TestLockRecursiveClosureWalkedInline(t *testing.T) {
	// A recursive closure called under x.a is walked where it is called,
	// once: its x.b acquire is in order and its own recursive call ends
	// the inline walk, while an inversion inside it is still reported.
	wantFindings(t, analyzeSrc(t, lockHeader+`
func (g *guarded) ok(n int) {
	var visit func(int)
	visit = func(i int) {
		g.b.Lock()
		g.b.Unlock()
		if i > 0 {
			visit(i - 1)
		}
	}
	g.a.Lock()
	visit(n)
	g.a.Unlock()
}

func (g *guarded) bad() {
	relock := func() {
		g.a.Lock()
		g.a.Unlock()
	}
	g.b.Lock()
	relock()
	g.b.Unlock()
}
`), `acquiring "x.a" while holding "x.b"`)
}

func TestLockHeldRequirement(t *testing.T) {
	wantFindings(t, analyzeSrc(t, lockHeader+`
//sqlcm:lock-held x.a
func (g *guarded) stepLocked() {}

func (g *guarded) ok() {
	g.a.Lock()
	g.stepLocked()
	g.a.Unlock()
}

func (g *guarded) bad() {
	g.stepLocked()
}
`), `call to guarded.stepLocked requires "x.a" to be held`)
}

func TestLockHandoff(t *testing.T) {
	// The waitLocked pattern: enter held, release inside, re-acquire and
	// release again on a branch. No findings.
	wantFindings(t, analyzeSrc(t, lockHeader+`
//sqlcm:lock-held x.a
//sqlcm:lock-release x.a
func (g *guarded) waitLocked(fail bool) error {
	if fail {
		g.a.Unlock()
		return nil
	}
	g.a.Unlock()
	g.a.Lock()
	g.a.Unlock()
	return nil
}

func (g *guarded) acquire() error {
	g.a.Lock()
	return g.waitLocked(false)
}
`))
}

func TestLockConditionalPairedLock(t *testing.T) {
	// "if cond { lock }; work; if cond { unlock }" must not report: the
	// class is only maybe-held after the merge.
	wantFindings(t, analyzeSrc(t, lockHeader+`
func (g *guarded) insert(bounded bool) {
	if bounded {
		g.a.Lock()
	}
	g.b.Lock()
	g.b.Unlock()
	if bounded {
		g.a.Unlock()
	}
}
`))
}

func TestLockMaybeHeldStillOrdersAcquires(t *testing.T) {
	wantFindings(t, analyzeSrc(t, `package x

import "sync"

type g3 struct {
	//sqlcm:lock y.a
	a sync.Mutex
	//sqlcm:lock y.b
	b sync.Mutex
}

func (g *g3) bad(cond bool) {
	if cond {
		g.b.Lock()
	}
	g.a.Lock()
	g.a.Unlock()
	if cond {
		g.b.Unlock()
	}
}
`), `acquiring "y.a" while holding "y.b"`)
}

func TestLockGoroutineBodyStartsUnlocked(t *testing.T) {
	wantFindings(t, analyzeSrc(t, lockHeader+`
func (g *guarded) ok() {
	g.a.Lock()
	go func() {
		g.ch <- 1
	}()
	g.a.Unlock()
}
`))
}

func TestLockDeferredUnlockInLiteral(t *testing.T) {
	wantFindings(t, analyzeSrc(t, lockHeader+`
func (g *guarded) ok() {
	g.a.Lock()
	defer func() {
		g.a.Unlock()
	}()
	if len(g.ch) > 0 {
		return
	}
}
`))
}

func TestLockCallbackReturnIsNotALeak(t *testing.T) {
	// A return inside an inline callback must not report the enclosing
	// function's held locks as leaked.
	wantFindings(t, analyzeSrc(t, lockHeader+`
func (g *guarded) scan(fn func(int) bool) {}

func (g *guarded) ok() {
	g.a.Lock()
	g.scan(func(v int) bool {
		if v == 0 {
			return false
		}
		return true
	})
	g.a.Unlock()
}
`))
}

func TestLockUnlockNotHeld(t *testing.T) {
	wantFindings(t, analyzeSrc(t, lockHeader+`
func (g *guarded) bad() {
	g.a.Unlock()
}
`), `unlock of "x.a" which is not held`)
}

func TestLockDocRendersChains(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir, "fixture.go", lockHeader)
	prog, err := LoadTree(dir)
	if err != nil {
		t.Fatalf("LoadTree: %v", err)
	}
	doc := prog.LockOrderDoc()
	for _, want := range []string{"x.a -> x.b", "| x.a | — (root) |", "`x.guarded.b` (fixture.go)", "## Chains"} {
		if !strings.Contains(doc, want) {
			t.Errorf("doc missing %q:\n%s", want, doc)
		}
	}
}

// The declaration checks: a mutex field without a class, a malformed
// annotation, an "after" naming no declared class, and a lock-held
// directive naming no declared class.
func TestLockClassDeclarations(t *testing.T) {
	wantFindings(t, analyzeSrc(t, `package x

import "sync"

type g4 struct {
	bare sync.Mutex
	//sqlcm:lock z.a before z.b
	odd sync.Mutex
	//sqlcm:lock z.c after z.nowhere
	c sync.RWMutex
}

//sqlcm:lock-held z.missing
func (g *g4) stepLocked() {}
`),
		`mutex field x.g4.bare has no //sqlcm:lock annotation`,
		`malformed //sqlcm:lock annotation: expected "after" followed by class names, got "before z.b"`,
		`lock class "z.c" is declared after unknown class "z.nowhere"`,
		`//sqlcm:lock-held names unknown class "z.missing"`,
	)
}
