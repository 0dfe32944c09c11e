// Package clock abstracts the time source the monitoring layer runs
// against. Production code uses System (the wall clock); the simulation
// harness in internal/sim substitutes a virtual clock whose timers fire
// deterministically under a seeded scheduler, which is what makes
// aging-window LATs and Timer.Alarm dispatch replayable bit-for-bit from
// a seed.
//
// The interface is deliberately the small subset of package time the
// monitoring subsystems actually use: reading the clock, callback-form
// one-shot timers and sleeping. Components take a Clock at construction
// and default to System, so embedders never notice the indirection.
package clock

import "time"

// Clock is an injectable time source.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// AfterFunc arranges for f to run once d has elapsed. The real clock
	// runs f on its own goroutine (time.AfterFunc semantics); a virtual
	// clock may run f synchronously inside its advance step.
	AfterFunc(d time.Duration, f func()) Timer
	// Sleep blocks the calling goroutine for d.
	Sleep(d time.Duration)
}

// Timer is a stoppable one-shot timer.
type Timer interface {
	// Stop cancels the timer. It reports whether the cancellation
	// prevented the firing: false means the timer already fired (or its
	// callback already started), mirroring time.Timer.Stop.
	Stop() bool
}

// System is the wall clock.
var System Clock = Real{}

// Real implements Clock over package time.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// AfterFunc implements Clock.
func (Real) AfterFunc(d time.Duration, f func()) Timer {
	return realTimer{t: time.AfterFunc(d, f)}
}

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

type realTimer struct{ t *time.Timer }

func (r realTimer) Stop() bool { return r.t.Stop() }
