// Package monitor implements SQLCM's monitored classes (§2.2, Appendix A):
// Query, Transaction, Blocker, Blocked and Timer, plus the LATRow class for
// evicted aggregation-table rows. A monitored object is an attribute bag
// whose values come from probes — instrumentation points in the engine —
// assembled on demand at rule-evaluation time.
package monitor

import (
	"fmt"
	"sync/atomic"
	"time"

	"sqlcm/internal/engine"
	"sqlcm/internal/signature"
	"sqlcm/internal/sqltypes"
)

// Class names.
const (
	ClassQuery       = "Query"
	ClassTransaction = "Transaction"
	ClassBlocker     = "Blocker"
	ClassBlocked     = "Blocked"
	ClassTimer       = "Timer"
	ClassLATRow      = "LATRow"
	ClassMonitor     = "Monitor"
)

// Event identifies a monitored event: a class and an event name, written
// Class.Name in rules (e.g. Query.Commit). The schema's events are the Ev
// values below, and ParseEvent returns them: each carries its dense
// position in the schema, so indexing anything by event hashes nothing. An
// Event assembled by hand lies outside the schema.
type Event struct {
	Class string
	Name  string
	// pos is the event's position in allEvents plus one (0: not a schema
	// event).
	pos uint8
}

// String renders Class.Name.
func (e Event) String() string { return e.Class + "." + e.Name }

// The events exposed by the current schema (§5.1), numbered in allEvents
// order.
var (
	EvQueryStart         = Event{ClassQuery, "Start", 1}
	EvQueryCompile       = Event{ClassQuery, "Compile", 2}
	EvQueryCommit        = Event{ClassQuery, "Commit", 3}
	EvQueryCancel        = Event{ClassQuery, "Cancel", 4}
	EvQueryRollback      = Event{ClassQuery, "Rollback", 5}
	EvQueryBlocked       = Event{ClassQuery, "Blocked", 6}
	EvQueryBlockReleased = Event{ClassQuery, "Block_Released", 7}
	EvTxnCommit          = Event{ClassTransaction, "Commit", 8}
	EvTxnRollback        = Event{ClassTransaction, "Rollback", 9}
	EvTimerAlarm         = Event{ClassTimer, "Alarm", 10}
	EvLATRowEvicted      = Event{ClassLATRow, "Evicted", 11}
	EvRuleQuarantined    = Event{ClassMonitor, "RuleQuarantined", 12}
	// EvQueryCancelled fires when the engine defensively cancels a
	// statement (statement timeout, admission-control shed, server
	// drain, or an admin/rule cancel); the Cancel_Reason probe carries
	// the attribution. Distinct from Query.Cancel, which classifies any
	// cancelled abort: Cancelled is the engine monitoring its own
	// defensive actions — a monitored dimension the paper never had.
	EvQueryCancelled = Event{ClassQuery, "Cancelled", 13}
)

// allEvents lists the schema's events in declaration order; its positions
// are the dense indices returned by EventIndex.
var allEvents = []Event{
	EvQueryStart, EvQueryCompile, EvQueryCommit, EvQueryCancel,
	EvQueryRollback, EvQueryBlocked, EvQueryBlockReleased,
	EvTxnCommit, EvTxnRollback, EvTimerAlarm, EvLATRowEvicted,
	EvRuleQuarantined,
	// Later schema additions append here so earlier dense indices stay
	// stable.
	EvQueryCancelled,
}

// eventByName is built once at package init so parsing an event is one
// map hit.
var eventByName map[string]Event

func init() {
	eventByName = make(map[string]Event, len(allEvents))
	for i, ev := range allEvents {
		if int(ev.pos) != i+1 {
			panic("monitor: event " + ev.String() + " is numbered out of allEvents order")
		}
		eventByName[ev.String()] = ev
	}
}

// AllEvents returns the schema's events in declaration order.
func AllEvents() []Event { return append([]Event(nil), allEvents...) }

// NumEvents returns the number of events in the schema.
func NumEvents() int { return len(allEvents) }

// EventIndex returns a dense, stable index for a schema event (used for
// per-event counters and rule lists) and whether the event is part of the
// schema.
func EventIndex(ev Event) (int, bool) {
	if ev.pos == 0 {
		return 0, false
	}
	return int(ev.pos) - 1, true
}

// ParseEvent parses "Class.Name" into an Event, validating it against the
// schema.
func ParseEvent(s string) (Event, error) {
	if ev, ok := eventByName[s]; ok {
		return ev, nil
	}
	return Event{}, fmt.Errorf("monitor: unknown event %q", s)
}

// Object is a monitored object: a typed attribute bag.
type Object interface {
	// Class returns the monitored class name.
	Class() string
	// Get returns the named attribute (a probe value).
	Get(attr string) (sqltypes.Value, bool)
}

// Getter adapts an Object to the lat.AttrGetter shape.
func Getter(o Object) func(string) (sqltypes.Value, bool) { return o.Get }

// ---------------------------------------------------------------------------
// Query objects
// ---------------------------------------------------------------------------

// Sigs carries the four signature values of a statement. The hex forms are
// precomputed once per plan: probes read them on every rule evaluation.
type Sigs struct {
	Logical      signature.ID
	Physical     signature.ID
	LogicalHex   string
	PhysicalHex  string
	LogicalText  string
	PhysicalText string
}

// SigCache computes per-plan signatures once: the paper computes the
// signature during optimization and caches it with the query plan, and so
// does this — in the plan-cache entry's slot (QueryInfo.Sigs), which an
// eviction frees with the plan.
type SigCache struct {
	computes atomic.Int64 // number of actual computations (cache misses)
}

// NewSigCache returns a signature cache with no computations counted.
func NewSigCache() *SigCache { return &SigCache{} }

// For returns the signatures for a compiled statement, computing them on
// first sight of its (cached) plan.
func (c *SigCache) For(q *engine.QueryInfo) *Sigs {
	if q.Logical == nil {
		return &Sigs{}
	}
	if q.Sigs != nil {
		if s, ok := q.Sigs.Load().(*Sigs); ok {
			return s
		}
	}
	lid, ltext := signature.Logical(q.Logical)
	pid, ptext := signature.Physical(q.Physical)
	s := &Sigs{
		Logical: lid, Physical: pid,
		LogicalHex: lid.String(), PhysicalHex: pid.String(),
		LogicalText: ltext, PhysicalText: ptext,
	}
	if q.Sigs != nil && !q.Sigs.CompareAndSwap(nil, s) {
		// Only the winner of a racing first computation counts a miss,
		// keeping the signature-overhead experiment's counter exact (one
		// compute per distinct plan).
		return q.Sigs.Load().(*Sigs)
	}
	c.computes.Add(1)
	return s
}

// Computes returns the number of signature computations performed (cache
// misses), a probe for the signature-overhead experiment.
func (c *SigCache) Computes() int64 { return c.computes.Load() }

// QueryObject exposes one statement as a monitored object with the
// Appendix A attributes. Duration is fixed at event time for completion
// events and live for in-flight observations (timer rules).
type QueryObject struct {
	class string // Query, Blocker or Blocked share this schema
	Info  *engine.QueryInfo
	Sig   *Sigs
	// DurationAt, when non-negative, freezes the Duration attribute (set on
	// Commit/Cancel/Rollback events).
	DurationAt time.Duration
	// WaitTime is the per-event lock wait (Blocked/Block_Released events
	// and Blocked objects in release events).
	WaitTime time.Duration
}

// NewQueryObject wraps info for the Query class.
func NewQueryObject(info *engine.QueryInfo, sig *Sigs) *QueryObject {
	return &QueryObject{class: ClassQuery, Info: info, Sig: sig, DurationAt: -1}
}

// NewBlockerObject wraps info for the Blocker class.
func NewBlockerObject(info *engine.QueryInfo, sig *Sigs) *QueryObject {
	return &QueryObject{class: ClassBlocker, Info: info, Sig: sig, DurationAt: -1}
}

// NewBlockedObject wraps info for the Blocked class with its current wait.
func NewBlockedObject(info *engine.QueryInfo, sig *Sigs, wait time.Duration) *QueryObject {
	return &QueryObject{class: ClassBlocked, Info: info, Sig: sig, DurationAt: -1, WaitTime: wait}
}

// Class implements Object.
func (q *QueryObject) Class() string { return q.class }

// Get implements Object. Durations are exposed in seconds (float), matching
// the paper's examples ("Query.Duration > 100").
func (q *QueryObject) Get(attr string) (sqltypes.Value, bool) { return q.attr(attrID(attr)) }

// attr answers an attribute by id.
func (q *QueryObject) attr(id int) (sqltypes.Value, bool) {
	info := q.Info
	if info == nil {
		return sqltypes.Null, false
	}
	switch id {
	case aID:
		return sqltypes.NewInt(info.ID), true
	case aSessionID:
		return sqltypes.NewInt(info.SessionID), true
	case aUser:
		return sqltypes.NewString(info.User), true
	case aApplication:
		return sqltypes.NewString(info.App), true
	case aQueryText:
		return sqltypes.NewString(info.Text), true
	case aQueryType:
		return sqltypes.NewString(string(info.Type)), true
	case aLogicalSignature:
		if q.Sig == nil {
			return sqltypes.Null, true
		}
		hex := q.Sig.LogicalHex
		if hex == "" {
			hex = q.Sig.Logical.String()
		}
		return sqltypes.NewString(hex), true
	case aPhysicalSignature:
		if q.Sig == nil {
			return sqltypes.Null, true
		}
		hex := q.Sig.PhysicalHex
		if hex == "" {
			hex = q.Sig.Physical.String()
		}
		return sqltypes.NewString(hex), true
	case aStartTime:
		return sqltypes.NewTime(info.StartTime), true
	case aDuration:
		d := q.DurationAt
		if d < 0 {
			d = time.Since(info.StartTime)
		}
		return sqltypes.NewFloat(d.Seconds()), true
	case aEstimatedCost:
		return sqltypes.NewFloat(info.EstimatedCost), true
	case aTimeBlocked:
		return sqltypes.NewFloat(info.TimeBlocked().Seconds()), true
	case aTimesBlocked:
		return sqltypes.NewInt(info.TimesBlocked()), true
	case aQueriesBlocked:
		return sqltypes.NewInt(info.QueriesBlocked()), true
	case aNumberOfInstances:
		return sqltypes.NewInt(info.Instances), true
	case aWaitTime:
		return sqltypes.NewFloat(q.WaitTime.Seconds()), true
	case aRemoteAddr:
		// NULL for embedded sessions so connection-targeting conditions
		// never match in-process traffic.
		if info.RemoteAddr == "" {
			return sqltypes.Null, true
		}
		return sqltypes.NewString(info.RemoteAddr), true
	case aConnectTime:
		if info.SessionStart.IsZero() {
			return sqltypes.Null, true
		}
		return sqltypes.NewTime(info.SessionStart), true
	case aSessionAge:
		if info.SessionStart.IsZero() {
			return sqltypes.Null, true
		}
		return sqltypes.NewFloat(time.Since(info.SessionStart).Seconds()), true
	case aCancelReason:
		// NULL unless the statement was defensively cancelled, so rules
		// matching on a reason never fire for ordinary statements.
		if r := info.CancelReason(); r != engine.CancelNone {
			return sqltypes.NewString(r.String()), true
		}
		return sqltypes.Null, true
	case aSnapshotAge:
		// NULL for a statement that never ran (shed: no snapshot taken).
		if info.SnapshotAt.IsZero() {
			return sqltypes.Null, true
		}
		return sqltypes.NewFloat(time.Since(info.SnapshotAt).Seconds()), true
	case aVersionChainLength:
		return sqltypes.NewInt(info.MaxChain()), true
	case aVersionsPruned:
		if info.MVCC == nil {
			return sqltypes.Null, true
		}
		return sqltypes.NewInt(info.MVCC.Pruned.Load()), true
	case aVersionsRetained:
		if info.MVCC == nil {
			return sqltypes.Null, true
		}
		return sqltypes.NewInt(info.MVCC.Retained.Load()), true
	default:
		return sqltypes.Null, false
	}
}

// ---------------------------------------------------------------------------
// Transaction objects
// ---------------------------------------------------------------------------

// TxnObject exposes one transaction with its signature sequence (§4.2:
// logical/physical transaction signatures over the statement sequence
// between the outermost BEGIN and COMMIT).
type TxnObject struct {
	Info     *engine.TxnInfo
	Duration time.Duration
	// Signature sequence accumulated over the transaction's statements.
	LogicalSig  signature.ID
	PhysicalSig signature.ID
	NQueries    int64
	TimeBlocked time.Duration
	// Hex forms of the two signatures, from the tracker's cache.
	logicalHex, physicalHex string
}

// Class implements Object.
func (t *TxnObject) Class() string { return ClassTransaction }

// Get implements Object.
func (t *TxnObject) Get(attr string) (sqltypes.Value, bool) { return t.attr(attrID(attr)) }

// attr answers an attribute by id.
func (t *TxnObject) attr(id int) (sqltypes.Value, bool) {
	switch id {
	case aID:
		return sqltypes.NewInt(int64(t.Info.ID)), true
	case aSessionID:
		return sqltypes.NewInt(t.Info.SessionID), true
	case aUser:
		return sqltypes.NewString(t.Info.User), true
	case aApplication:
		return sqltypes.NewString(t.Info.App), true
	case aStartTime:
		return sqltypes.NewTime(t.Info.StartTime), true
	case aDuration:
		return sqltypes.NewFloat(t.Duration.Seconds()), true
	case aLogicalSignature:
		return sqltypes.NewString(t.logicalHex), true
	case aPhysicalSignature:
		return sqltypes.NewString(t.physicalHex), true
	case aNumberOfInstances:
		return sqltypes.NewInt(t.NQueries), true
	case aTimeBlocked:
		return sqltypes.NewFloat(t.TimeBlocked.Seconds()), true
	case aImplicit:
		return sqltypes.NewBool(t.Info.Implicit), true
	default:
		return sqltypes.Null, false
	}
}

// TxnTracker folds statements into their transactions and closes each
// into a Transaction object. The running signatures and counters live on
// the transaction's own record (engine.TxnInfo.Tally), which only the
// goroutine running the transaction touches, so neither Observe nor Finish
// takes a lock. The tracker keeps only the hex forms of the transaction
// signatures it has formatted: a transaction template recurs, and its
// signature is formatted once.
type TxnTracker struct {
	// hex is a direct-mapped cache from a transaction signature to its hex
	// form; a slot holding another signature only costs a reformat.
	hex [hexSlots]atomic.Pointer[sigHex]
}

// hexSlots is the size of the tracker's hex cache.
const hexSlots = 256

// sigHex is one cached hex form.
type sigHex struct {
	id  signature.ID
	hex string
}

// NewTxnTracker returns a tracker with nothing formatted yet.
func NewTxnTracker() *TxnTracker { return &TxnTracker{} }

// Observe records one statement's signatures under its transaction. It
// runs on the goroutine that runs the transaction.
func (t *TxnTracker) Observe(info *engine.TxnInfo, s *Sigs, blocked time.Duration) {
	a := &info.Tally
	if a.Statements == 0 {
		a.Logical, a.Physical = uint64(signature.EmptyTransaction), uint64(signature.EmptyTransaction)
	}
	a.Logical = uint64(signature.ID(a.Logical).Then(s.Logical))
	a.Physical = uint64(signature.ID(a.Physical).Then(s.Physical))
	a.Statements++
	a.Blocked += blocked
}

// Finish closes a transaction, consuming its tally, and returns its
// object. It runs on the goroutine that ran the transaction.
func (t *TxnTracker) Finish(info *engine.TxnInfo, dur time.Duration) *TxnObject {
	a := info.Tally
	info.Tally = engine.TxnTally{}
	logical, physical := signature.ID(a.Logical), signature.ID(a.Physical)
	return &TxnObject{
		Info: info, Duration: dur,
		LogicalSig: logical, PhysicalSig: physical,
		NQueries: a.Statements, TimeBlocked: a.Blocked,
		logicalHex: t.hexOf(logical), physicalHex: t.hexOf(physical),
	}
}

// hexOf returns id's hex form, formatting it only on a cache miss.
func (t *TxnTracker) hexOf(id signature.ID) string {
	slot := &t.hex[uint64(id)%hexSlots]
	if e := slot.Load(); e != nil && e.id == id {
		return e.hex
	}
	e := &sigHex{id: id, hex: id.String()}
	slot.Store(e)
	return e.hex
}

// ---------------------------------------------------------------------------
// Timer and LATRow objects
// ---------------------------------------------------------------------------

// TimerObject exposes a timer at alarm time.
type TimerObject struct {
	Name string
	Now  time.Time
	Seq  int64 // alarm sequence number
}

// Class implements Object.
func (t *TimerObject) Class() string { return ClassTimer }

// Get implements Object.
func (t *TimerObject) Get(attr string) (sqltypes.Value, bool) {
	switch attr {
	case "Name":
		return sqltypes.NewString(t.Name), true
	case "Current_Time":
		return sqltypes.NewTime(t.Now), true
	case "Alarm_Count":
		return sqltypes.NewInt(t.Seq), true
	default:
		return sqltypes.Null, false
	}
}

// LATRowObject exposes an evicted LAT row as a monitored object (§4.3).
type LATRowObject struct {
	LAT     string
	Columns []string
	Values  []sqltypes.Value
}

// Class implements Object.
func (r *LATRowObject) Class() string { return ClassLATRow }

// Get implements Object.
func (r *LATRowObject) Get(attr string) (sqltypes.Value, bool) {
	if attr == "LAT" {
		return sqltypes.NewString(r.LAT), true
	}
	for i, c := range r.Columns {
		if c == attr {
			return r.Values[i], true
		}
	}
	return sqltypes.Null, false
}

// MonitorObject exposes a monitoring-infrastructure incident (such as a
// rule being quarantined after repeated failures) as a monitored object, so
// rules can alert on the health of the monitoring layer itself.
type MonitorObject struct {
	Rule     string
	Failures int64
	Error    string
	At       time.Time
}

// Class implements Object.
func (m *MonitorObject) Class() string { return ClassMonitor }

// Get implements Object.
func (m *MonitorObject) Get(attr string) (sqltypes.Value, bool) {
	switch attr {
	case "Rule":
		return sqltypes.NewString(m.Rule), true
	case "Failures":
		return sqltypes.NewInt(m.Failures), true
	case "Error":
		return sqltypes.NewString(m.Error), true
	case "Current_Time":
		return sqltypes.NewTime(m.At), true
	default:
		return sqltypes.Null, false
	}
}
