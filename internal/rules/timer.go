package rules

import (
	"fmt"
	"sync"
	"time"

	"sqlcm/internal/clock"
	"sqlcm/internal/monitor"
)

// Dispatcher receives Timer.Alarm events. The rule engine satisfies it
// directly; production wiring routes alarms through the event layer's bus
// so they are counted like every other monitored event.
type Dispatcher interface {
	Dispatch(ev monitor.Event, objs map[string]monitor.Object)
}

// TimerManager implements the Timer monitored class (§5.1): named timers
// whose alarms dispatch Timer.Alarm events through the rule engine, used
// for rules that cannot be tied to a system event (periodic reporting,
// watchdogs).
//
// Scheduling is delegated to an injectable clock.Clock: each armed timer
// is one clock.AfterFunc registration, re-armed after every alarm. With
// the real clock alarms arrive on timer goroutines exactly as before;
// with the simulation harness's virtual clock they fire synchronously —
// and deterministically — inside Clock.Advance.
type TimerManager struct {
	dispatcher Dispatcher
	clk        clock.Clock

	// mu protects the timer map and closed flag.
	//sqlcm:lock rules.timer
	//sqlcm:guards timers, closed
	mu     sync.Mutex
	timers map[string]*timerState
	closed bool
	// wg tracks every armed alarm (including superseded arms), so Close
	// can wait for in-flight callbacks and guarantee no Dispatch call
	// happens after Close returns.
	wg sync.WaitGroup
}

type timerState struct {
	name   string        // immutable after creation
	period time.Duration // immutable after creation
	count  int           // immutable after creation
	//sqlcm:guarded-by rules.timer
	seq int64
	// timer is the currently armed AfterFunc registration.
	//sqlcm:guarded-by rules.timer
	timer clock.Timer
}

// NewTimerManager creates a manager dispatching into d on the wall clock.
func NewTimerManager(d Dispatcher) *TimerManager {
	return NewTimerManagerWithClock(d, clock.System)
}

// NewTimerManagerWithClock creates a manager whose alarms are scheduled on
// clk (the simulation harness passes a virtual clock).
func NewTimerManagerWithClock(d Dispatcher, clk clock.Clock) *TimerManager {
	return &TimerManager{dispatcher: d, clk: clk, timers: make(map[string]*timerState)}
}

// Set arms (or re-arms, or with count 0 disables) the named timer: count
// alarms separated by period; negative count repeats until disabled.
func (m *TimerManager) Set(name string, period time.Duration, count int) error {
	if name == "" {
		return fmt.Errorf("rules: timer needs a name")
	}
	if count != 0 && period <= 0 {
		return fmt.Errorf("rules: timer %q needs a positive period", name)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return fmt.Errorf("rules: timer manager closed")
	}
	// Re-arming stops the previous schedule. A Stop that arrives too late
	// (the callback already started) is detected by the callback itself:
	// it finds the map no longer points at its state and backs off.
	if prev, ok := m.timers[name]; ok {
		//sqlcm:allow clock.Timer implementations take at most sim.clock, declared after rules.timer
		if prev.timer != nil && prev.timer.Stop() {
			m.wg.Done()
		}
		delete(m.timers, name)
	}
	if count == 0 {
		return nil
	}
	st := &timerState{name: name, period: period, count: count}
	m.timers[name] = st
	m.wg.Add(1)
	//sqlcm:allow AfterFunc defers fire: the real clock runs it on a timer goroutine, the virtual clock inside Advance — never at this call site
	st.timer = m.clk.AfterFunc(period, func() { m.fire(st) })
	return nil
}

// Active returns the names of armed timers.
func (m *TimerManager) Active() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.timers))
	for n := range m.timers {
		out = append(out, n)
	}
	return out
}

// Close disables every timer and waits for in-flight alarm callbacks:
// after Close returns, no alarm can reach the dispatcher, so the rule
// engine (and the engine behind it) may be torn down safely.
func (m *TimerManager) Close() {
	m.mu.Lock()
	m.closed = true
	for _, st := range m.timers {
		//sqlcm:allow clock.Timer implementations take at most sim.clock, declared after rules.timer
		if st.timer != nil && st.timer.Stop() {
			m.wg.Done()
		}
	}
	m.timers = make(map[string]*timerState)
	m.mu.Unlock()
	// Wait outside the lock: a running callback takes m.mu to validate
	// and deregister.
	m.wg.Wait()
}

// fire delivers one alarm for st and re-arms it while its schedule is
// live. It runs as a clock.AfterFunc callback: on the real clock that is
// a timer goroutine; on a virtual clock it is the goroutine driving
// Clock.Advance. The per-arm WaitGroup count is released only after the
// dispatch completes, which is what lets Close guarantee quiescence.
func (m *TimerManager) fire(st *timerState) {
	m.mu.Lock()
	if m.closed || m.timers[st.name] != st {
		// Cancelled (Close or re-arm) between the callback starting and
		// the latch: deliver nothing.
		m.mu.Unlock()
		m.wg.Done()
		return
	}
	st.seq++
	seq := st.seq
	m.mu.Unlock()

	obj := &monitor.TimerObject{Name: st.name, Now: m.clk.Now(), Seq: seq}
	m.dispatcher.Dispatch(monitor.EvTimerAlarm, map[string]monitor.Object{
		monitor.ClassTimer: obj,
	})

	m.mu.Lock()
	if !m.closed && m.timers[st.name] == st {
		// A dispatched action may have re-armed or disabled this very
		// timer (SetTimer from a rule); only the still-current state
		// schedules the next alarm or expires the schedule.
		if st.count > 0 && int(seq) >= st.count {
			delete(m.timers, st.name)
		} else {
			m.wg.Add(1)
			//sqlcm:allow AfterFunc defers fire (see Set); re-arming under the latch is the identity-check invariant
			st.timer = m.clk.AfterFunc(st.period, func() { m.fire(st) })
		}
	}
	m.mu.Unlock()
	m.wg.Done()
}
