package analysis

import "testing"

// guardedHeader declares one RWMutex-guarded registry reused by the
// guardedby walker tests.
const guardedHeader = `package x

import "sync"

type reg struct {
	//sqlcm:lock x.reg
	//sqlcm:guards m, n
	mu sync.RWMutex
	m  map[string]int
	n  int
}
`

func TestGuardedByUnlockedRead(t *testing.T) {
	diags := analyzeSrc(t, guardedHeader+`
func (r *reg) get(k string) int { return r.m[k] }
`)
	wantFindings(t, diags, "read of x.m requires x.reg (held: no lock)")
}

func TestGuardedByWriteUnderReadLock(t *testing.T) {
	diags := analyzeSrc(t, guardedHeader+`
func (r *reg) bump() {
	r.mu.RLock()
	r.n++
	r.mu.RUnlock()
}
`)
	wantFindings(t, diags, "write of x.n requires the write side of x.reg, which is only read-held here")
}

// Builtins resolve through go/types (a *types.Builtin, not a nil use):
// delete mutates the map it is handed, and new(T) is a fresh allocation.
func TestGuardedByBuiltins(t *testing.T) {
	diags := analyzeSrc(t, guardedHeader+`
func (r *reg) drop(k string) {
	r.mu.RLock()
	delete(r.m, k)
	r.mu.RUnlock()
}

func newReg() *reg {
	r := new(reg)
	r.n = 1
	return r
}
`)
	wantFindings(t, diags, "write of x.m requires the write side of x.reg, which is only read-held here")
}

// A callee that locks and defer-unlocks holds nothing when it returns:
// its summary must not leak the class into the caller's held-set.
func TestGuardedByDeferredUnlockNotInSummary(t *testing.T) {
	diags := analyzeSrc(t, guardedHeader+`
func (r *reg) size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.m)
}

func (r *reg) peek() int {
	_ = r.size()
	return r.n
}
`)
	wantFindings(t, diags, "read of x.n requires x.reg (held: no lock)")
}

func TestGuardedByDeferUnlockKeepsHeld(t *testing.T) {
	diags := analyzeSrc(t, guardedHeader+`
func (r *reg) get(k string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.m[k]
}
`)
	wantFindings(t, diags)
}

func TestGuardedByBranchMergeLosesLock(t *testing.T) {
	// The lock is taken on only one branch: after the merge the class is
	// maybe-held, which still counts as held (lenient walk), so only the
	// fully unlocked function reports.
	diags := analyzeSrc(t, guardedHeader+`
func (r *reg) maybe(b bool) int {
	if b {
		r.mu.RLock()
	}
	v := r.m["k"]
	if b {
		r.mu.RUnlock()
	}
	return v
}
`)
	wantFindings(t, diags)
}

func TestGuardedByLockHeldSeedsCallee(t *testing.T) {
	diags := analyzeSrc(t, guardedHeader+`
//sqlcm:lock-held x.reg
func (r *reg) getLocked(k string) int { return r.m[k] }

func (r *reg) get(k string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.getLocked(k)
}
`)
	wantFindings(t, diags)
}

func TestGuardedByAllowSuppresses(t *testing.T) {
	diags := analyzeSrc(t, guardedHeader+`
func (r *reg) peek() int {
	//sqlcm:allow startup-only read before any goroutine is spawned
	return r.n
}
`)
	wantFindings(t, diags)
}

func TestGuardedByBareAllowNeedsReason(t *testing.T) {
	diags := analyzeSrc(t, guardedHeader+`
func (r *reg) peek() int {
	//sqlcm:allow
	return r.n
}
`)
	wantFindings(t, diags, "//sqlcm:allow without a reason")
}

func TestGuardedByFreshValueExempt(t *testing.T) {
	diags := analyzeSrc(t, guardedHeader+`
func newReg() *reg {
	r := &reg{}
	r.m = make(map[string]int)
	r.n = 1
	return r
}
`)
	wantFindings(t, diags)
}

func TestGuardedByUnknownClassAndConflictingClaims(t *testing.T) {
	diags := analyzeSrc(t, `package x

import "sync"

type s struct {
	//sqlcm:lock x.a
	//sqlcm:guards v
	mu sync.Mutex
	//sqlcm:lock x.b
	//sqlcm:guards v
	mu2 sync.Mutex
	v   int
	//sqlcm:guarded-by x.missing
	w int
}

func (p *s) use() {
	p.mu.Lock()
	p.v = 1
	p.mu.Unlock()
	p.mu2.Lock()
	p.w = 2
	p.mu2.Unlock()
}
`)
	wantFindings(t, diags,
		"field v is claimed by two lock classes",
		"unknown lock class",
		// The later claim (x.b) wins, so the x.a-locked write reports too.
		"write of x.v requires x.b (held: x.a)",
		// w is guarded by the unknown class, which no lock ever holds.
		"write of x.w requires x.missing",
	)
}

func TestAtomicFieldMixedAccess(t *testing.T) {
	diags := analyzeSrc(t, `package x

import "sync/atomic"

type s struct{ n int64 }

func (p *s) bump() { atomic.AddInt64(&p.n, 1) }
func (p *s) read() int64 { return p.n }
`)
	wantFindings(t, diags, "plain read of x.n, which is accessed via sync/atomic elsewhere")
}

func TestAtomicFieldStructCopy(t *testing.T) {
	diags := analyzeSrc(t, `package x

import "sync/atomic"

type s struct{ n atomic.Int64 }

func snapshot(p *s) s { return *p }
`)
	wantFindings(t, diags, "copies a x.s value containing atomic state")
}

func TestAtomicFieldTypedAtomicsClean(t *testing.T) {
	diags := analyzeSrc(t, `package x

import "sync/atomic"

type s struct{ n atomic.Int64 }

func (p *s) bump() { p.n.Add(1) }
func (p *s) read() int64 { return p.n.Load() }
`)
	wantFindings(t, diags)
}

// cowHeader declares one COW index published under a writer mutex.
const cowHeader = `package x

import (
	"sync"
	"sync/atomic"
)

type eng struct {
	//sqlcm:lock x.write
	//sqlcm:guards none
	mu sync.Mutex
	//sqlcm:cow x.write
	idx atomic.Pointer[int]
}
`

func TestCowStoreWithoutWriterLock(t *testing.T) {
	diags := analyzeSrc(t, cowHeader+`
func (e *eng) publish(v *int) { e.idx.Store(v) }
`)
	wantFindings(t, diags, "Store to COW field x.idx requires the write side of x.write (held: no lock)")
}

func TestCowStoreUnderWriterLockClean(t *testing.T) {
	diags := analyzeSrc(t, cowHeader+`
func (e *eng) publish(v *int) {
	e.mu.Lock()
	e.idx.Store(v)
	e.mu.Unlock()
}
`)
	wantFindings(t, diags)
}

func TestCowInPlaceMutation(t *testing.T) {
	diags := analyzeSrc(t, cowHeader+`
func (e *eng) bad() {
	p := e.idx.Load()
	*p = 7
}
`)
	wantFindings(t, diags, "in-place mutation of a value loaded from a COW field")
}

func TestCowLoadIsLockFree(t *testing.T) {
	diags := analyzeSrc(t, cowHeader+`
func (e *eng) read() int {
	if p := e.idx.Load(); p != nil {
		return *p
	}
	return 0
}
`)
	wantFindings(t, diags)
}
