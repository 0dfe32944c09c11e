// Package sim is SQLCM's deterministic simulation and differential-testing
// subsystem. It drives the real monitoring stack — the LATs, the
// copy-on-write rule engine, the timer manager — against a virtual clock
// and a seeded workload generator, and checks every step against naive
// reference oracles: an O(n) recompute-from-history LAT and a sequential
// single-threaded rule dispatcher. A divergence reprints as a seed (and a
// recorded trace) that reproduces bit-for-bit, and a shrinker reduces the
// failing trace to a minimal event prefix.
package sim

import (
	"container/heap"
	"sync"
	"time"

	"sqlcm/internal/clock"
)

// Clock is a virtual clock implementing clock.Clock. Time only moves when
// Advance (or AdvanceTo) is called; due timers fire in deterministic
// (deadline, registration-order) order, and AfterFunc callbacks run
// synchronously on the goroutine driving the advance. One goroutine at a
// time may advance; any goroutine may read or register timers.
type Clock struct {
	// mu protects the virtual time and the pending-timer heap.
	//sqlcm:lock sim.clock after rules.timer
	//sqlcm:guards now, seq, pend
	mu   sync.Mutex
	now  time.Time
	seq  int64
	pend vtimerHeap
}

// NewClock creates a virtual clock at start. Callers should pass a time
// without a monotonic reading (e.g. time.Unix(...)) so arithmetic on it is
// bit-reproducible.
func NewClock(start time.Time) *Clock {
	return &Clock{now: start}
}

// Now implements clock.Clock.
func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// AfterFunc implements clock.Clock. The callback runs synchronously inside
// the Advance call that reaches its deadline.
func (c *Clock) AfterFunc(d time.Duration, f func()) clock.Timer {
	e := &vtimer{fn: f}
	c.register(d, e)
	return vtimerRef{c: c, e: e}
}

// Sleep implements clock.Clock: it blocks until another goroutine advances
// the clock past the deadline. (The simulation driver itself must never
// call Sleep — it would deadlock waiting for its own advance.)
func (c *Clock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	done := make(chan struct{})
	c.AfterFunc(d, func() { close(done) })
	<-done
}

// register files a timer entry d from now.
func (c *Clock) register(d time.Duration, e *vtimer) {
	c.mu.Lock()
	c.seq++
	e.at = c.now.Add(d)
	e.seq = c.seq
	heap.Push(&c.pend, e)
	c.mu.Unlock()
}

// Pending returns the number of armed timers.
func (c *Clock) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pend)
}

// Advance moves the clock forward by d, firing every timer whose deadline
// falls inside the window, in (deadline, registration) order. Timers
// registered by callbacks during the advance (e.g. a timer re-arming
// itself) fire in the same window when due.
func (c *Clock) Advance(d time.Duration) {
	c.AdvanceTo(c.Now().Add(d))
}

// AdvanceTo moves the clock to target (no-op if target is in the past),
// firing due timers as Advance does.
func (c *Clock) AdvanceTo(target time.Time) {
	for {
		c.mu.Lock()
		if len(c.pend) == 0 || c.pend[0].at.After(target) {
			if c.now.Before(target) {
				c.now = target
			}
			c.mu.Unlock()
			return
		}
		e := heap.Pop(&c.pend).(*vtimer)
		e.fired = true
		if c.now.Before(e.at) {
			c.now = e.at
		}
		c.mu.Unlock()
		// Run outside the latch: callbacks may re-register timers or take
		// downstream latches (rules.timer).
		e.fn()
	}
}

// vtimer is one pending registration.
type vtimer struct {
	at      time.Time
	seq     int64
	fn      func()
	heapIdx int
	fired   bool
	stopped bool
}

// vtimerRef adapts a vtimer to clock.Timer.
type vtimerRef struct {
	c *Clock
	e *vtimer
}

// Stop implements clock.Timer.
func (t vtimerRef) Stop() bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	if t.e.fired || t.e.stopped {
		return false
	}
	t.e.stopped = true
	heap.Remove(&t.c.pend, t.e.heapIdx)
	return true
}

// vtimerHeap orders pending timers by (deadline, registration seq).
type vtimerHeap []*vtimer

func (h vtimerHeap) Len() int { return len(h) }

func (h vtimerHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}

func (h vtimerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}

func (h *vtimerHeap) Push(x interface{}) {
	e := x.(*vtimer)
	e.heapIdx = len(*h)
	*h = append(*h, e)
}

func (h *vtimerHeap) Pop() interface{} {
	old := *h
	e := old[len(old)-1]
	e.heapIdx = -1
	*h = old[:len(old)-1]
	return e
}
