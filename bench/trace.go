package main

import (
	"encoding/json"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sqlcm/internal/engine"
	"sqlcm/internal/event"
	"sqlcm/internal/monitor"
)

// Span names. Every span is recorded from this package, around calls the
// program already exports (engine.Hooks callbacks, event.Sink.Dispatch,
// server.Client calls); spans inside the program are a later change.
const (
	spanClient   = iota // client.stmt: Client.ExecPrepared/Query, send to reply
	spanCompile         // engine.compile: the plan-cache miss the engine reports (QueryInfo.OptimizeTime)
	spanRun             // engine.run: QueryStart entry to QueryCommit/QueryAbort exit
	spanLockWait        // lock.wait: QueryBlocked entry to QueryUnblocked exit
	spanHook            // event.hook: one engine.Hooks callback into the monitor
	spanDispatch        // rules.dispatch: one event.Sink.Dispatch, inside its hook
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"client.stmt", "engine.compile", "engine.run", "lock.wait", "event.hook", "rules.dispatch",
}

// span is one timed interval. Times are nanoseconds since the tracer was
// made; Trace is the statement's sequence number, shared by its spans.
type span struct {
	Trace  int64
	ID     int64
	Parent int64
	Name   uint8
	Start  int64
	End    int64
}

type spanJSON struct {
	Trace  int64  `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTimes returns each span's self time: its duration minus the part of
// it that its direct children cover (children may overlap each other and
// stick out of the parent; only the covered part counts, once). A span
// whose parent is not among the spans is an orphan, unless it is a root
// (parent 0); orphans reports how many there are.
func selfTimes(spans []span) (self []int64, orphans int) {
	self = make([]int64, len(spans))
	type iv struct{ lo, hi int64 }
	var kids []iv
	for i, p := range spans {
		kids = kids[:0]
		for _, c := range spans {
			if c.Parent != p.ID || c.ID == p.ID {
				continue
			}
			lo, hi := max(c.Start, p.Start), min(c.End, p.End)
			if hi > lo {
				kids = append(kids, iv{lo, hi})
			}
		}
		slices.SortFunc(kids, func(a, b iv) int { return int(a.lo - b.lo) })
		covered, end := int64(0), p.Start
		for _, k := range kids {
			if k.hi <= end {
				continue
			}
			covered += k.hi - max(k.lo, end)
			end = k.hi
		}
		self[i] = p.End - p.Start - covered
	}
	for _, c := range spans {
		if c.Parent == 0 {
			continue
		}
		found := false
		for _, p := range spans {
			if p.ID == c.Parent {
				found = true
				break
			}
		}
		if !found {
			orphans++
		}
	}
	return self, orphans
}

// keepStatements is how many statements' spans each connection keeps for
// the trace file; the per-layer totals cover every traced statement.
const keepStatements = 2000

// connTrace is the trace state of one connection: the spans of the
// statement in flight, and totals over the statements already closed. Two
// goroutines touch it, in strict alternation: the client opens a statement
// and sends it, the connection's server goroutine adds spans from the hooks
// (every hook of a statement returns before its reply is written), the
// client reads the reply and closes the statement. Request and reply order
// the two in fact; enter and leave order them for the memory model and the
// race detector, as a load and an increment of turn. (Not a mutex: the
// repository's lock-order analysis wants every mutex field of the tree
// declared in docs/lock-order.md.)
type connTrace struct {
	turn   atomic.Int64
	idStep int64
	nextID int64
	spans  []span // kept statements, then the one in flight
	open   int    // index in spans where the statement in flight starts
	kept   int

	trace int64 // statement in flight, 0 when none
	root  int64 // its client.stmt span
	run   int64 // its open engine.run span, 0 when none
	runT  int64
	wait  int64 // its open lock.wait span, 0 when none
	waitT int64
	hook  int64 // the event.hook callback now running, 0 when none

	total      [numSpanNames]int64 // span time by name, ns
	self       [numSpanNames]int64 // self time by name, ns
	count      [numSpanNames]int64
	clientSelf []int32 // self time of each client.stmt, ns
	orphans    int64   // spans with no statement or no parent to belong to
	queries    int64   // statements that reached the executor
	misses     int64   // of those, compiled because the plan cache missed
	commits    int64   // explicit transactions committed
}

// enter precedes, and leave follows, every access to the fields below.
func (c *connTrace) enter() { c.turn.Load() }
func (c *connTrace) leave() { c.turn.Add(1) }

func (c *connTrace) id() int64 {
	c.nextID += c.idStep
	return c.nextID
}

// parent is the span a server-side span starts under. Caller has entered.
func (c *connTrace) parent() int64 {
	switch {
	case c.wait != 0:
		return c.wait
	case c.run != 0:
		return c.run
	default:
		return c.root
	}
}

// add records a finished span. Caller has entered.
func (c *connTrace) add(id, parent int64, name uint8, start, end int64) {
	if c.trace == 0 {
		c.orphans++
		return
	}
	c.spans = append(c.spans, span{Trace: c.trace, ID: id, Parent: parent, Name: name, Start: start, End: end})
}

// begin opens a statement; its client.stmt span is added by end.
func (c *connTrace) begin(trace int64) {
	c.enter()
	c.trace = trace
	c.root = c.id()
	c.open = len(c.spans)
	c.leave()
}

// end closes the statement in flight: it adds the client.stmt span, folds
// the statement's spans into the totals and drops them unless they are
// among the first keepStatements.
func (c *connTrace) end(start, end int64) {
	c.enter()
	defer c.leave()
	c.add(c.root, 0, spanClient, start, end)
	stmt := c.spans[c.open:]
	self, orphans := selfTimes(stmt)
	c.orphans += int64(orphans)
	for i, s := range stmt {
		c.total[s.Name] += s.End - s.Start
		c.self[s.Name] += self[i]
		c.count[s.Name]++
		if s.Name == spanClient {
			c.clientSelf = append(c.clientSelf, int32(min(self[i], int64(1<<31-1))))
		}
	}
	if c.kept < keepStatements {
		c.kept++
	} else {
		c.spans = c.spans[:c.open]
	}
	c.trace, c.root, c.run, c.wait, c.hook = 0, 0, 0, 0, 0
}

// tracer records spans for a traced measuring window.
type tracer struct {
	base time.Time

	sessions sync.Map // engine session id → *connTrace
	conns    []*connTrace
}

func newTracer(conns int) *tracer {
	t := &tracer{base: time.Now()}
	for i := 0; i < conns; i++ {
		t.conns = append(t.conns, &connTrace{idStep: int64(conns), nextID: int64(i)})
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// register ties an engine session to the connection that owns it.
func (t *tracer) register(sessionID int64, conn int) {
	t.sessions.Store(sessionID, t.conns[conn])
}

func (t *tracer) conn(sessionID int64) *connTrace {
	if c, ok := t.sessions.Load(sessionID); ok {
		return c.(*connTrace)
	}
	return nil
}

// write stores the kept spans as a JSON array.
func (t *tracer) write(path string) error {
	var out []spanJSON
	for _, c := range t.conns {
		c.enter()
		for _, s := range c.spans {
			out = append(out, spanJSON{s.Trace, s.ID, s.Parent, spanNames[s.Name], s.Start, s.End})
		}
		c.leave()
	}
	slices.SortFunc(out, func(a, b spanJSON) int { return int(a.Start - b.Start) })
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// timingHooks is the engine.Hooks the traced window installs. It times
// every callback into inner (the monitor's own hook set; nil when
// monitoring is off, and then no event.hook span exists) and derives the
// engine spans from the order the engine makes the callbacks in.
type timingHooks struct {
	tr    *tracer
	inner engine.Hooks
}

// hook times one callback into the monitor on connection c.
func (h *timingHooks) hook(c *connTrace, call func()) {
	if h.inner == nil {
		return
	}
	if c == nil {
		call()
		return
	}
	c.enter()
	id, parent := c.id(), c.parent()
	c.hook = id
	c.leave()
	start := h.tr.now()
	call()
	end := h.tr.now()
	c.enter()
	c.hook = 0
	c.add(id, parent, spanHook, start, end)
	c.leave()
}

func (h *timingHooks) QueryStart(q *engine.QueryInfo) {
	c := h.tr.conn(q.SessionID)
	if c != nil {
		now := h.tr.now()
		c.enter()
		c.queries++
		if !q.PlanCacheHit {
			// The engine compiles before it calls any hook, and reports
			// how long that took: place the span just before the start
			// time it stamped.
			c.misses++
			at := int64(q.StartTime.Sub(h.tr.base))
			c.add(c.id(), c.root, spanCompile, at-int64(q.OptimizeTime), at)
		}
		c.run, c.runT = c.id(), now
		c.leave()
	}
	h.hook(c, func() { h.inner.QueryStart(q) })
}

func (h *timingHooks) QueryCompiled(q *engine.QueryInfo) {
	h.hook(h.tr.conn(q.SessionID), func() { h.inner.QueryCompiled(q) })
}

// endRun closes the statement's engine.run span.
func (h *timingHooks) endRun(c *connTrace) {
	if c == nil {
		return
	}
	now := h.tr.now()
	c.enter()
	if c.run != 0 {
		c.add(c.run, c.root, spanRun, c.runT, now)
		c.run = 0
	}
	c.leave()
}

func (h *timingHooks) QueryCommit(q *engine.QueryInfo, d time.Duration) {
	c := h.tr.conn(q.SessionID)
	h.hook(c, func() { h.inner.QueryCommit(q, d) })
	h.endRun(c)
}

func (h *timingHooks) QueryAbort(q *engine.QueryInfo, d time.Duration, cancelled bool) {
	c := h.tr.conn(q.SessionID)
	h.hook(c, func() { h.inner.QueryAbort(q, d, cancelled) })
	h.endRun(c)
}

func (h *timingHooks) QueryCancelled(q *engine.QueryInfo, d time.Duration, r engine.CancelReason) {
	h.hook(h.tr.conn(q.SessionID), func() { h.inner.QueryCancelled(q, d, r) })
}

func (h *timingHooks) QueryBlocked(ev engine.BlockEvent) {
	c := h.tr.conn(ev.Waiter.SessionID)
	if c != nil {
		now := h.tr.now()
		c.enter()
		c.wait, c.waitT = c.id(), now
		c.leave()
	}
	h.hook(c, func() { h.inner.QueryBlocked(ev) })
}

func (h *timingHooks) QueryUnblocked(ev engine.BlockEvent) {
	c := h.tr.conn(ev.Waiter.SessionID)
	h.hook(c, func() { h.inner.QueryUnblocked(ev) })
	if c == nil {
		return
	}
	now := h.tr.now()
	c.enter()
	if id := c.wait; id != 0 {
		c.wait = 0 // so that parent() is what the wait itself started under
		c.add(id, c.parent(), spanLockWait, c.waitT, now)
	}
	c.leave()
}

func (h *timingHooks) BlockReleased(holder *engine.QueryInfo, waiters []engine.BlockEvent) {
	h.hook(h.tr.conn(holder.SessionID), func() { h.inner.BlockReleased(holder, waiters) })
}

func (h *timingHooks) TxnBegin(t *engine.TxnInfo) {
	h.hook(h.tr.conn(t.SessionID), func() { h.inner.TxnBegin(t) })
}

func (h *timingHooks) TxnCommit(t *engine.TxnInfo, d time.Duration) {
	c := h.tr.conn(t.SessionID)
	if c != nil && !t.Implicit {
		c.enter()
		c.commits++
		c.leave()
	}
	h.hook(c, func() { h.inner.TxnCommit(t, d) })
}

func (h *timingHooks) TxnRollback(t *engine.TxnInfo, d time.Duration) {
	h.hook(h.tr.conn(t.SessionID), func() { h.inner.TxnRollback(t, d) })
}

// timingSink stands between the traced window's bus and the rule engine:
// each Dispatch becomes a rules.dispatch span under the hook that raised it.
type timingSink struct {
	tr    *tracer
	inner event.Sink
}

func (s timingSink) HasRulesFor(ev monitor.Event) bool { return s.inner.HasRulesFor(ev) }
func (s timingSink) HasAnyRules() bool                 { return s.inner.HasAnyRules() }

func (s timingSink) Dispatch(ev monitor.Event, objs map[string]monitor.Object) {
	c := s.tr.connOf(ev, objs)
	start := s.tr.now()
	s.inner.Dispatch(ev, objs)
	end := s.tr.now()
	if c == nil {
		return
	}
	c.enter()
	c.add(c.id(), c.hook, spanDispatch, start, end)
	c.leave()
}

// connOf finds the connection whose goroutine raised an event, through the
// session of the object the event is about: the statement or transaction
// itself, except that a lock release is raised by the holder's connection.
func (t *tracer) connOf(ev monitor.Event, objs map[string]monitor.Object) *connTrace {
	class := ev.Class
	if ev == monitor.EvQueryBlockReleased {
		class = monitor.ClassBlocker
	}
	switch o := objs[class].(type) {
	case *monitor.QueryObject:
		return t.conn(o.Info.SessionID)
	case *monitor.TxnObject:
		return t.conn(o.Info.SessionID)
	}
	return nil
}
