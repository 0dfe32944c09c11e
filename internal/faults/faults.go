// Package faults provides injectable failure modes for exercising the
// monitoring layer's fail-safe paths: persisters that error, external
// runners that hang, and a seeded aggregate bug. Everything is toggled
// atomically so chaos tests can flip faults on and off while load is
// running.
package faults

import (
	"errors"
	"sync"
	"sync/atomic"

	"sqlcm/internal/sqltypes"
)

// ErrInjected is the error returned by every injected failure.
var ErrInjected = errors.New("faults: injected failure")

// aggSumDropEvery, when positive, makes every Nth SUM contribution across
// all LATs silently vanish — a seeded aggregate bug for the simulation
// harness's differential oracle to catch (and for its shrinker to reduce).
var (
	aggSumDropEvery atomic.Int64
	aggSumDropTick  atomic.Int64
)

// SetAggSumDrop arms (n > 0) or disarms (n <= 0) the SUM-drop fault and
// resets its contribution counter, so runs with the same workload drop the
// same contributions.
func SetAggSumDrop(n int) {
	aggSumDropTick.Store(0)
	aggSumDropEvery.Store(int64(n))
}

// AggSumDropped reports whether the current SUM contribution should be
// dropped. One atomic load when the fault is disarmed.
func AggSumDropped() bool {
	every := aggSumDropEvery.Load()
	if every <= 0 {
		return false
	}
	return aggSumDropTick.Add(1)%every == 0
}

// Persister is the write interface faults wraps (mirrors core.Persister;
// redeclared here to keep the dependency arrow pointing at faults).
type Persister interface {
	Persist(table string, cols []string, kinds []sqltypes.Kind, row []sqltypes.Value) error
}

// FlakyPersister fails the first FailFirst attempts of every call sequence
// (a transient outage) or fails permanently while Broken is set.
type FlakyPersister struct {
	Inner Persister

	// mu protects the failure-mode counters.
	//sqlcm:lock faults.persister
	//sqlcm:guards remaining, passLeft, passSet
	mu        sync.Mutex
	remaining int
	passLeft  int // with passSet, calls allowed before hard failure
	passSet   bool

	broken atomic.Bool

	Attempts atomic.Int64
	Failures atomic.Int64
}

// FailNext makes the next n Persist calls fail (transient outage).
func (p *FlakyPersister) FailNext(n int) {
	p.mu.Lock()
	p.remaining = n
	p.mu.Unlock()
}

// FailCallsAfter lets the next n calls through, then fails every later
// call (a mid-sequence outage, e.g. a PersistLAT torn after its first
// rows). Reset clears it.
func (p *FlakyPersister) FailCallsAfter(n int) {
	p.mu.Lock()
	p.passLeft, p.passSet = n, true
	p.mu.Unlock()
}

// Reset clears all transient failure modes.
func (p *FlakyPersister) Reset() {
	p.mu.Lock()
	p.remaining, p.passLeft, p.passSet = 0, 0, false
	p.mu.Unlock()
	p.broken.Store(false)
}

// Break toggles a permanent outage.
func (p *FlakyPersister) Break(on bool) { p.broken.Store(on) }

// Persist implements Persister.
func (p *FlakyPersister) Persist(table string, cols []string, kinds []sqltypes.Kind, row []sqltypes.Value) error {
	p.Attempts.Add(1)
	if p.broken.Load() {
		p.Failures.Add(1)
		return ErrInjected
	}
	p.mu.Lock()
	fail := p.remaining > 0
	if fail {
		p.remaining--
	}
	if p.passSet {
		if p.passLeft <= 0 {
			fail = true
		} else {
			p.passLeft--
		}
	}
	p.mu.Unlock()
	if fail {
		p.Failures.Add(1)
		return ErrInjected
	}
	return p.Inner.Persist(table, cols, kinds, row)
}

// HungRunner blocks every Run call until Release (models a hung external
// process; the outbox's per-attempt deadline must cut it loose).
type HungRunner struct {
	// mu protects the hang channel and command log.
	//sqlcm:lock faults.runner
	//sqlcm:guards hang, cmds
	mu       sync.Mutex
	hang     chan struct{} // non-nil: Run blocks on it
	cmds     []string
	Started  atomic.Int64
	Finished atomic.Int64
}

// Hang makes subsequent Run calls block until Release.
func (r *HungRunner) Hang() {
	r.mu.Lock()
	if r.hang == nil {
		r.hang = make(chan struct{})
	}
	r.mu.Unlock()
}

// Release unblocks all hung and future Run calls.
func (r *HungRunner) Release() {
	r.mu.Lock()
	if r.hang != nil {
		close(r.hang)
		r.hang = nil
	}
	r.mu.Unlock()
}

// Run implements core.Runner.
func (r *HungRunner) Run(cmd string) error {
	r.Started.Add(1)
	r.mu.Lock()
	hang := r.hang
	r.mu.Unlock()
	if hang != nil {
		<-hang
	}
	r.mu.Lock()
	r.cmds = append(r.cmds, cmd)
	r.mu.Unlock()
	r.Finished.Add(1)
	return nil
}

// Commands returns the completed command lines.
func (r *HungRunner) Commands() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.cmds...)
}
