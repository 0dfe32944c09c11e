package event

import (
	"sync/atomic"
	"testing"
	"time"

	"sqlcm/internal/monitor"
)

// slowSink burns time per dispatch to push the latency EWMA over budget.
type slowSink struct {
	delay     time.Duration
	delivered atomic.Int64
}

func (s *slowSink) Dispatch(ev monitor.Event, objs map[string]monitor.Object) {
	s.delivered.Add(1)
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
}
func (s *slowSink) HasRulesFor(ev monitor.Event) bool { return true }
func (s *slowSink) HasAnyRules() bool                 { return true }

func TestBusShedsUnderLatencyBudget(t *testing.T) {
	sink := &slowSink{delay: time.Millisecond}
	b := NewBus(sink)
	b.SetBudget(10 * time.Microsecond)
	for i := 0; i < 200; i++ {
		b.Dispatch(monitor.EvQueryCommit, nil)
	}
	if !b.Degraded() {
		t.Fatal("bus never entered degraded mode despite slow sink")
	}
	if b.ShedTotal() == 0 {
		t.Fatal("no events shed in degraded mode")
	}
	if b.ShedCount(monitor.EvQueryCommit) != b.ShedTotal() {
		t.Fatalf("per-event shed %d != total %d",
			b.ShedCount(monitor.EvQueryCommit), b.ShedTotal())
	}
	// Every event is still counted, shed or not.
	if b.Count(monitor.EvQueryCommit) != 200 {
		t.Fatalf("count %d, want 200", b.Count(monitor.EvQueryCommit))
	}
	if got := sink.delivered.Load() + b.ShedTotal(); got != 200 {
		t.Fatalf("delivered+shed = %d, want 200", got)
	}
	// Sampling forwards roughly 1 in sampleN once degraded; far fewer than all.
	if sink.delivered.Load() > 150 {
		t.Fatalf("too many delivered under overload: %d", sink.delivered.Load())
	}
}

func TestBusExemptEventsNeverShed(t *testing.T) {
	sink := &slowSink{delay: time.Millisecond}
	b := NewBus(sink)
	b.SetBudget(10 * time.Microsecond)
	for i := 0; i < 50; i++ {
		b.Dispatch(monitor.EvQueryCommit, nil) // drive it degraded
	}
	if !b.Degraded() {
		t.Fatal("not degraded")
	}
	before := sink.delivered.Load()
	for i := 0; i < 20; i++ {
		b.Dispatch(monitor.EvTimerAlarm, nil)
		b.Dispatch(monitor.EvRuleQuarantined, nil)
	}
	if got := sink.delivered.Load() - before; got != 40 {
		t.Fatalf("exempt events delivered %d/40", got)
	}
	if b.ShedCount(monitor.EvTimerAlarm) != 0 || b.ShedCount(monitor.EvRuleQuarantined) != 0 {
		t.Fatal("exempt events were shed")
	}
}

func TestBusNoBudgetNeverSheds(t *testing.T) {
	sink := &slowSink{}
	b := NewBus(sink)
	for i := 0; i < 100; i++ {
		b.Dispatch(monitor.EvQueryCommit, nil)
	}
	if b.ShedTotal() != 0 || b.Degraded() {
		t.Fatal("shedding active without a budget")
	}
	if sink.delivered.Load() != 100 {
		t.Fatalf("delivered %d, want 100", sink.delivered.Load())
	}
}
