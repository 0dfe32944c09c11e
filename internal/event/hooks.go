package event

import (
	"sync"
	"time"

	"sqlcm/internal/engine"
	"sqlcm/internal/monitor"
)

// Hooks adapts the engine's instrumentation callbacks onto the Bus: each
// hook assembles the monitored objects its event binds (only when a rule
// listens, §2.1) and hands them to the single Dispatch entry point. Every
// callback runs synchronously in the engine thread that raised it, exactly
// as the paper's architecture (Figure 1) prescribes.
type Hooks struct {
	bus  *Bus
	sigs *monitor.SigCache
	txns *monitor.TxnTracker
	// objs recycles the maps events bind their objects into: one is
	// borrowed per Bus.Dispatch and cleared when it returns (Sink.Dispatch
	// may not retain it).
	objs sync.Pool
}

// NewHooks builds the hook set over a bus, a signature cache and a
// transaction tracker.
func NewHooks(bus *Bus, sigs *monitor.SigCache, txns *monitor.TxnTracker) *Hooks {
	h := &Hooks{bus: bus, sigs: sigs, txns: txns}
	h.objs.New = func() any { return make(map[string]monitor.Object, 3) }
	return h
}

// dispatch binds the non-nil objects by class into a borrowed map and
// dispatches the event.
//
//sqlcm:hotpath
func (h *Hooks) dispatch(ev monitor.Event, objs ...monitor.Object) {
	m := h.objs.Get().(map[string]monitor.Object)
	for _, o := range objs {
		if o != nil {
			m[o.Class()] = o
		}
	}
	h.bus.Dispatch(ev, m)
	clear(m)
	h.objs.Put(m)
}

// Bus returns the bus the hooks dispatch into.
func (h *Hooks) Bus() *Bus { return h.bus }

// QueryStart implements engine.Hooks.
func (h *Hooks) QueryStart(q *engine.QueryInfo) {
	if !h.bus.Interested(monitor.EvQueryStart) {
		return
	}
	h.dispatch(monitor.EvQueryStart, monitor.NewQueryObject(q, nil))
}

// QueryCompiled implements engine.Hooks.
func (h *Hooks) QueryCompiled(q *engine.QueryInfo) {
	if !h.bus.Active() {
		return // no rules: not even signatures are computed (§2.1)
	}
	// Signatures are computed (or fetched from the plan-side cache) here,
	// mirroring the paper: computed during optimization, cached with the
	// plan.
	sig := h.sigs.For(q)
	if !h.bus.Interested(monitor.EvQueryCompile) {
		return
	}
	h.dispatch(monitor.EvQueryCompile, monitor.NewQueryObject(q, sig))
}

// QueryCommit implements engine.Hooks.
func (h *Hooks) QueryCommit(q *engine.QueryInfo, dur time.Duration) {
	needCommit := h.bus.Interested(monitor.EvQueryCommit)
	needTxn := h.txnRules()
	if !needTxn && !needCommit {
		return
	}
	sig := h.sigs.For(q)
	// Track the statement for transaction signatures when transaction
	// rules exist.
	if needTxn {
		h.txns.Observe(q.TxnInfo, sig, q.TimeBlocked())
	}
	if !needCommit {
		return
	}
	obj := monitor.NewQueryObject(q, sig)
	obj.DurationAt = dur
	h.dispatch(monitor.EvQueryCommit, obj)
}

// QueryAbort implements engine.Hooks.
func (h *Hooks) QueryAbort(q *engine.QueryInfo, dur time.Duration, cancelled bool) {
	ev := monitor.EvQueryRollback
	if cancelled {
		ev = monitor.EvQueryCancel
	}
	if !h.bus.Interested(ev) {
		return
	}
	obj := monitor.NewQueryObject(q, h.sigs.For(q))
	obj.DurationAt = dur
	h.dispatch(ev, obj)
}

// QueryCancelled implements engine.Hooks: the engine terminated a
// statement in its own defence (statement timeout, admission-control
// shed, server drain, or an admin/rule cancel). Fires after QueryAbort
// for statements that were executing; shed statements never started, so
// this is their only event. The reason is exposed as Cancel_Reason.
func (h *Hooks) QueryCancelled(q *engine.QueryInfo, dur time.Duration, reason engine.CancelReason) {
	if !h.bus.Interested(monitor.EvQueryCancelled) {
		return
	}
	obj := monitor.NewQueryObject(q, h.sigs.For(q))
	obj.DurationAt = dur
	h.dispatch(monitor.EvQueryCancelled, obj)
}

// QueryBlocked implements engine.Hooks.
func (h *Hooks) QueryBlocked(ev engine.BlockEvent) {
	if !h.bus.Interested(monitor.EvQueryBlocked) {
		return
	}
	// Bind the first resolvable holder as the Blocker (when several
	// transactions share the resource one is designated, §6.1).
	var blocker monitor.Object
	for _, holder := range ev.Holders {
		if holder != nil {
			blocker = monitor.NewBlockerObject(holder, h.sigs.For(holder))
			break
		}
	}
	h.dispatch(monitor.EvQueryBlocked, monitor.NewQueryObject(ev.Waiter, h.sigs.For(ev.Waiter)),
		monitor.NewBlockedObject(ev.Waiter, h.sigs.For(ev.Waiter), 0), blocker)
}

// QueryUnblocked implements engine.Hooks.
func (h *Hooks) QueryUnblocked(ev engine.BlockEvent) {
	// Counter updates happen in the engine; the Block_Released event is
	// dispatched from the holder side (BlockReleased) where both objects
	// of the pair are known.
}

// BlockReleased implements engine.Hooks.
func (h *Hooks) BlockReleased(holder *engine.QueryInfo, waiters []engine.BlockEvent) {
	if !h.bus.Interested(monitor.EvQueryBlockReleased) {
		return
	}
	blocker := monitor.NewBlockerObject(holder, h.sigs.For(holder))
	for _, w := range waiters {
		h.dispatch(monitor.EvQueryBlockReleased, monitor.NewQueryObject(w.Waiter, h.sigs.For(w.Waiter)),
			blocker, monitor.NewBlockedObject(w.Waiter, h.sigs.For(w.Waiter), w.Waited))
	}
}

// TxnBegin implements engine.Hooks.
func (h *Hooks) TxnBegin(t *engine.TxnInfo) {}

// TxnCommit implements engine.Hooks.
func (h *Hooks) TxnCommit(t *engine.TxnInfo, dur time.Duration) {
	h.txnEnd(t, dur, monitor.EvTxnCommit)
}

// TxnRollback implements engine.Hooks.
func (h *Hooks) TxnRollback(t *engine.TxnInfo, dur time.Duration) {
	h.txnEnd(t, dur, monitor.EvTxnRollback)
}

// txnEnd closes out a transaction for either terminal event: the tracker
// state must be consumed whenever any transaction rule exists, but the
// event itself is only dispatched to its own listeners.
func (h *Hooks) txnEnd(t *engine.TxnInfo, dur time.Duration, ev monitor.Event) {
	listens := h.bus.Interested(ev)
	if !listens && !h.txnRules() {
		return
	}
	obj := h.txns.Finish(t, dur)
	if listens {
		h.dispatch(ev, obj)
	}
}

// txnRules reports whether any rule listens on a Transaction event, so
// statements must be tallied into their transactions.
func (h *Hooks) txnRules() bool {
	return h.bus.Interested(monitor.EvTxnCommit) || h.bus.Interested(monitor.EvTxnRollback)
}
