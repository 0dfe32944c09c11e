package rules

import (
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// DefaultQuarantineThreshold is the number of consecutive panicking
// evaluations after which a rule is quarantined when no explicit threshold
// is configured.
const DefaultQuarantineThreshold = 3

// QuarantineInfo describes one quarantine decision; it is handed to the
// engine's quarantine callback (and from there dispatched through the event
// bus as Monitor.RuleQuarantined).
type QuarantineInfo struct {
	Rule     string
	Failures int64
	Err      string
	At       time.Time
}

// SetQuarantineThreshold sets how many consecutive panicking evaluations
// quarantine a rule. Zero restores the default; a negative value disables
// quarantining (panics are still recovered and counted).
func (e *Engine) SetQuarantineThreshold(n int) {
	e.quarantineAfter.Store(int64(n))
}

// quarantineThreshold resolves the effective threshold (<0 = disabled).
func (e *Engine) quarantineThreshold() int64 {
	n := e.quarantineAfter.Load()
	if n == 0 {
		return DefaultQuarantineThreshold
	}
	return n
}

// SetOnQuarantine installs the callback invoked after a rule is
// quarantined. The callback runs in the thread that evaluated the failing
// rule, outside the engine's registration lock, so it may safely dispatch
// events or register rules.
func (e *Engine) SetOnQuarantine(fn func(QuarantineInfo)) {
	if fn == nil {
		e.onQuarantine.Store(nil)
		return
	}
	e.onQuarantine.Store(&fn)
}

// Quarantined reports whether the named rule is currently quarantined.
func (e *Engine) Quarantined(name string) bool {
	r, ok := e.Rule(name)
	return ok && r.quarantined.Load()
}

// QuarantinedRules returns the names of quarantined rules in registration
// order.
func (e *Engine) QuarantinedRules() []string {
	var out []string
	for _, r := range e.idx.Load().rules {
		if r.quarantined.Load() {
			out = append(out, r.Name)
		}
	}
	return out
}

// Reinstate lifts a rule's quarantine and republishes it in the dispatch
// index. It reports whether the rule existed and was quarantined.
func (e *Engine) Reinstate(name string) bool {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	for _, r := range e.idx.Load().rules {
		if r.Name == name {
			if !r.quarantined.Swap(false) {
				return false
			}
			r.consecFails.Store(0)
			e.idx.Store(buildIndex(e.idx.Load().rules))
			return true
		}
	}
	return false
}

// safeEvalRule evaluates one rule against st's context with panic
// isolation: a panic in the condition or in any action is recovered,
// counted, and — after quarantineThreshold consecutive panicking
// evaluations — quarantines the rule. A fully non-panicking evaluation
// resets the rule's consecutive-failure count. The query thread that
// raised the event never observes the failure.
func (e *Engine) safeEvalRule(r *Rule, st *evalState) {
	err := e.evalRuleRecover(r, st)
	if err == nil {
		r.consecFails.Store(0)
		return
	}
	e.panics.Add(1)
	e.actionErrs.Add(1)
	fails := int64(r.consecFails.Add(1))
	limit := e.quarantineThreshold()
	if limit < 0 || fails < limit || r.quarantined.Load() {
		return
	}
	e.quarantine(r, fails, err)
}

// evalRuleRecover runs one evaluation under recover, converting a panic in
// the condition or the action list into an error.
//
//sqlcm:recovered
func (e *Engine) evalRuleRecover(r *Rule, st *evalState) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("rules: rule %q panicked: %v\n%s", r.Name, p, debug.Stack())
		}
	}()
	e.evalRule(r, st)
	return nil
}

// quarantine removes the rule from the dispatch index (copy-on-write: the
// published per-event lists simply omit it) and notifies the quarantine
// callback outside the registration lock.
func (e *Engine) quarantine(r *Rule, fails int64, cause error) {
	e.writeMu.Lock()
	if r.quarantined.Swap(true) {
		e.writeMu.Unlock()
		return // lost a race with a concurrent quarantine of the same rule
	}
	e.idx.Store(buildIndex(e.idx.Load().rules))
	e.writeMu.Unlock()
	e.quarantines.Add(1)
	if fn := e.onQuarantine.Load(); fn != nil {
		(*fn)(QuarantineInfo{Rule: r.Name, Failures: fails, Err: cause.Error(), At: time.Now()})
	}
}

// failsafeState carries the engine's fail-safe configuration and counters;
// embedded in Engine.
type failsafeState struct {
	// quarantineAfter is the configured threshold (0 = default, <0 = off).
	quarantineAfter atomic.Int64
	// onQuarantine is the installed quarantine callback, if any.
	onQuarantine atomic.Pointer[func(QuarantineInfo)]

	panics      atomic.Int64
	quarantines atomic.Int64
}
