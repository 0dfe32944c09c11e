// Package event is the unified intake layer of the monitoring hot path.
// Every monitored event — raised by an engine hook, a timer alarm, or a
// LAT eviction — funnels through one Dispatch entry point on the Bus,
// which counts it with a per-event atomic counter and forwards it to the
// rule engine. The layer is wait-free on the caller side: counting is an
// atomic add into a dense array indexed by the monitor schema's event
// index, and the sink (the rule engine) resolves its rule list through a
// lock-free copy-on-write index.
//
// Centralizing intake here (instead of hand-rolled plumbing in each hook
// adapter) gives one choke point for observability today and for the
// async/batched intake and multi-backend fan-out on the roadmap.
package event

import (
	"sync/atomic"
	"time"

	"sqlcm/internal/monitor"
)

// Sink consumes dispatched events. The rule engine is the production sink.
type Sink interface {
	// Dispatch delivers one event with its bound objects, synchronously in
	// the caller's thread. objs is borrowed: it is valid only for the call
	// (Hooks reuses it for a later event) and must not be retained or
	// modified; the objects in it may be kept.
	Dispatch(ev monitor.Event, objs map[string]monitor.Object)
	// HasRulesFor reports whether anything listens on ev, so callers can
	// skip monitored-object assembly entirely (§2.1).
	HasRulesFor(ev monitor.Event) bool
	// HasAnyRules reports whether any listener exists at all.
	HasAnyRules() bool
}

// Bus is the single event-dispatch entry point. It is safe for concurrent
// use from any number of engine threads and adds no locks of its own.
//
// Overload shedding: with a dispatch-latency budget configured
// (SetBudget), the bus tracks an exponentially weighted moving average of
// per-dispatch latency. While the average exceeds the budget the bus
// enters degraded mode and forwards only one in sampleN events — the rest
// are counted and shed rather than evaluated — so a storm of expensive
// rule evaluations cannot stall the query threads that raise the events.
// Timer alarms and monitoring-health events (Monitor.*) are exempt: they
// are rare and rules depend on each one. With no budget (the default) the
// hot path does not even read the clock.
type Bus struct {
	sink Sink
	// counts is indexed by monitor.EventIndex; one atomic per schema event.
	counts []atomic.Int64
	// shed counts events dropped in degraded mode, per schema event.
	shed      []atomic.Int64
	shedTotal atomic.Int64
	total     atomic.Int64

	// budgetNs is the latency budget (0 = shedding disabled).
	budgetNs atomic.Int64
	// sampleN is the degraded-mode sampling rate (forward 1 in sampleN).
	sampleN atomic.Int64
	// ewmaNs is the moving average of dispatch latency in nanoseconds.
	// Updated with load/compute/store (a lost update under contention only
	// delays the average by one sample, which is harmless).
	ewmaNs atomic.Int64
	// degraded is 1 while ewmaNs exceeds the budget.
	degraded atomic.Bool
	// seq drives sampling in degraded mode.
	seq atomic.Int64
}

// ewmaShift sets the EWMA weight: alpha = 1/2^ewmaShift per sample.
const ewmaShift = 4

// NewBus creates a bus forwarding into sink.
func NewBus(sink Sink) *Bus {
	b := &Bus{
		sink:   sink,
		counts: make([]atomic.Int64, monitor.NumEvents()),
		shed:   make([]atomic.Int64, monitor.NumEvents()),
	}
	b.sampleN.Store(16)
	return b
}

// SetBudget arms (or with budget 0 disarms) overload shedding: when the
// average dispatch latency exceeds budget, only one in sampleN events is
// forwarded until the average recovers. sampleN <= 0 keeps the previous
// rate (default 16).
func (b *Bus) SetBudget(budget time.Duration, sampleN int) {
	b.budgetNs.Store(int64(budget))
	if sampleN > 0 {
		b.sampleN.Store(int64(sampleN))
	}
	if budget <= 0 {
		b.degraded.Store(false)
	}
}

// Dispatch counts and forwards one event. This is the only path by which
// monitored events reach the rule engine.
//
//sqlcm:hotpath
func (b *Bus) Dispatch(ev monitor.Event, objs map[string]monitor.Object) {
	b.total.Add(1)
	i, known := monitor.EventIndex(ev)
	if known {
		b.counts[i].Add(1)
	}
	budget := b.budgetNs.Load()
	if budget == 0 {
		b.sink.Dispatch(ev, objs)
		return
	}
	if b.degraded.Load() && b.sheddable(ev) {
		if b.seq.Add(1)%b.sampleN.Load() != 0 {
			if known {
				b.shed[i].Add(1)
			}
			b.shedTotal.Add(1)
			return
		}
	}
	start := time.Now() //sqlcm:allow clock reads only happen with a latency budget armed
	b.sink.Dispatch(ev, objs)
	lat := int64(time.Since(start)) //sqlcm:allow see above
	ewma := b.ewmaNs.Load()
	ewma += (lat - ewma) >> ewmaShift
	b.ewmaNs.Store(ewma)
	b.degraded.Store(ewma > budget)
}

// sheddable reports whether an event may be sampled away in degraded mode.
func (b *Bus) sheddable(ev monitor.Event) bool {
	return ev.Class != monitor.ClassTimer && ev.Class != monitor.ClassMonitor
}

// Interested reports whether some rule listens on ev; hook adapters use it
// to skip probe assembly when no rule needs the event.
func (b *Bus) Interested(ev monitor.Event) bool { return b.sink.HasRulesFor(ev) }

// Active reports whether any rule is registered at all.
func (b *Bus) Active() bool { return b.sink.HasAnyRules() }

// Total returns the number of events dispatched through the bus.
func (b *Bus) Total() int64 { return b.total.Load() }

// ShedTotal returns the number of events dropped in degraded mode.
func (b *Bus) ShedTotal() int64 { return b.shedTotal.Load() }

// ShedCount returns the number of sheds of one schema event.
func (b *Bus) ShedCount(ev monitor.Event) int64 {
	if i, ok := monitor.EventIndex(ev); ok {
		return b.shed[i].Load()
	}
	return 0
}

// Degraded reports whether the bus is currently sampling events because
// the dispatch-latency average exceeds the configured budget.
func (b *Bus) Degraded() bool { return b.degraded.Load() }

// Count returns the number of dispatches of one schema event.
func (b *Bus) Count(ev monitor.Event) int64 {
	if i, ok := monitor.EventIndex(ev); ok {
		return b.counts[i].Load()
	}
	return 0
}

// Counts returns a snapshot of the per-event dispatch counters, keyed by
// the "Class.Name" event string, for events dispatched at least once.
func (b *Bus) Counts() map[string]int64 {
	out := make(map[string]int64)
	for i, ev := range monitor.AllEvents() {
		if n := b.counts[i].Load(); n > 0 {
			out[ev.String()] = n
		}
	}
	return out
}
