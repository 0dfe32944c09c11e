package monitor

import (
	"sqlcm/internal/sqltypes"
)

// This file is the static description of the monitored-class schema
// (Appendix A): which attributes each class exposes with which SQL kind,
// which classes each schema event binds into the rule context, and which
// classes the engine can enumerate when a rule references them without the
// event binding them. The rule engine consults live objects; the static
// analyser (internal/rulecheck) consults these tables.

// Attribute describes one probe in the schema.
type Attribute struct {
	Name string
	Kind sqltypes.Kind
	Doc  string
}

// Attribute ids number the attribute names of the Query/Blocker/Blocked
// and Transaction schemas densely (attrID); query and transaction objects
// answer an id through an integer switch.
const (
	aID = iota
	aSessionID
	aUser
	aApplication
	aQueryText
	aQueryType
	aLogicalSignature
	aPhysicalSignature
	aStartTime
	aDuration
	aEstimatedCost
	aTimeBlocked
	aTimesBlocked
	aQueriesBlocked
	aNumberOfInstances
	aWaitTime
	aRemoteAddr
	aConnectTime
	aSessionAge
	aCancelReason
	aSnapshotAge
	aVersionChainLength
	aVersionsPruned
	aVersionsRetained
	aImplicit
)

// QueryAttributes lists the Query/Blocker/Blocked schema.
func QueryAttributes() []Attribute {
	return []Attribute{
		{Name: "ID", Kind: sqltypes.KindInt, Doc: "statement id"},
		{Name: "Session_ID", Kind: sqltypes.KindInt, Doc: "owning session"},
		{Name: "User", Kind: sqltypes.KindString, Doc: "user that issued the statement"},
		{Name: "Application", Kind: sqltypes.KindString, Doc: "application name"},
		{Name: "Query_Text", Kind: sqltypes.KindString, Doc: "statement text"},
		{Name: "Query_Type", Kind: sqltypes.KindString, Doc: "SELECT/INSERT/UPDATE/DELETE"},
		{Name: "Logical_Signature", Kind: sqltypes.KindString, Doc: "logical query signature"},
		{Name: "Physical_Signature", Kind: sqltypes.KindString, Doc: "physical plan signature"},
		{Name: "Start_Time", Kind: sqltypes.KindTime, Doc: "execution start"},
		{Name: "Duration", Kind: sqltypes.KindFloat, Doc: "execution time in seconds"},
		{Name: "Estimated_Cost", Kind: sqltypes.KindFloat, Doc: "optimizer cost estimate"},
		{Name: "Time_Blocked", Kind: sqltypes.KindFloat, Doc: "total lock wait (s)"},
		{Name: "Times_Blocked", Kind: sqltypes.KindInt, Doc: "lock wait count"},
		{Name: "Queries_Blocked", Kind: sqltypes.KindInt, Doc: "# of queries blocked by this one"},
		{Name: "Number_of_instances", Kind: sqltypes.KindInt, Doc: "executions of this statement's template (its cached plan)"},
		{Name: "Wait_Time", Kind: sqltypes.KindFloat, Doc: "wait of the current blocking event (s)"},
		{Name: "Remote_Addr", Kind: sqltypes.KindString, Doc: "client address (NULL for embedded sessions)"},
		{Name: "Connect_Time", Kind: sqltypes.KindTime, Doc: "owning session's connect time"},
		{Name: "Session_Age", Kind: sqltypes.KindFloat, Doc: "owning session's age (s)"},
		{Name: "Cancel_Reason", Kind: sqltypes.KindString, Doc: "defensive-cancel attribution: admin/timeout/shed/drain (NULL otherwise)"},
		{Name: "Snapshot_Age", Kind: sqltypes.KindFloat, Doc: "age of the MVCC read snapshot (s; NULL for a statement that never ran)"},
		{Name: "Version_Chain_Length", Kind: sqltypes.KindInt, Doc: "longest version chain walked by this statement"},
		{Name: "Versions_Pruned", Kind: sqltypes.KindInt, Doc: "engine-wide row versions garbage-collected (NULL for a statement that never ran)"},
		{Name: "Versions_Retained", Kind: sqltypes.KindInt, Doc: "engine-wide row versions currently retained (NULL for a statement that never ran)"},
	}
}

// TransactionAttributes lists the Transaction schema.
func TransactionAttributes() []Attribute {
	return []Attribute{
		{Name: "ID", Kind: sqltypes.KindInt, Doc: "transaction id"},
		{Name: "Session_ID", Kind: sqltypes.KindInt, Doc: "owning session"},
		{Name: "User", Kind: sqltypes.KindString, Doc: "user that owns the transaction"},
		{Name: "Application", Kind: sqltypes.KindString, Doc: "application name"},
		{Name: "Start_Time", Kind: sqltypes.KindTime, Doc: "transaction start"},
		{Name: "Duration", Kind: sqltypes.KindFloat, Doc: "transaction time in seconds"},
		{Name: "Logical_Signature", Kind: sqltypes.KindString, Doc: "logical transaction signature"},
		{Name: "Physical_Signature", Kind: sqltypes.KindString, Doc: "physical transaction signature"},
		{Name: "Number_of_instances", Kind: sqltypes.KindInt, Doc: "statements in the transaction"},
		{Name: "Time_Blocked", Kind: sqltypes.KindFloat, Doc: "total lock wait (s)"},
		{Name: "Implicit", Kind: sqltypes.KindBool, Doc: "auto-commit transaction"},
	}
}

// attrID returns the id of a Query or Transaction attribute name, or -1
// (a string switch: several times faster than a map lookup).
func attrID(name string) int {
	switch name {
	case "ID":
		return aID
	case "Session_ID":
		return aSessionID
	case "User":
		return aUser
	case "Application":
		return aApplication
	case "Query_Text":
		return aQueryText
	case "Query_Type":
		return aQueryType
	case "Logical_Signature":
		return aLogicalSignature
	case "Physical_Signature":
		return aPhysicalSignature
	case "Start_Time":
		return aStartTime
	case "Duration":
		return aDuration
	case "Estimated_Cost":
		return aEstimatedCost
	case "Time_Blocked":
		return aTimeBlocked
	case "Times_Blocked":
		return aTimesBlocked
	case "Queries_Blocked":
		return aQueriesBlocked
	case "Number_of_instances":
		return aNumberOfInstances
	case "Wait_Time":
		return aWaitTime
	case "Remote_Addr":
		return aRemoteAddr
	case "Connect_Time":
		return aConnectTime
	case "Session_Age":
		return aSessionAge
	case "Cancel_Reason":
		return aCancelReason
	case "Snapshot_Age":
		return aSnapshotAge
	case "Version_Chain_Length":
		return aVersionChainLength
	case "Versions_Pruned":
		return aVersionsPruned
	case "Versions_Retained":
		return aVersionsRetained
	case "Implicit":
		return aImplicit
	}
	return -1
}

// Probe is an attribute name resolved to its id once, when a rule is
// compiled. Objects without a static schema (LATRow's attributes are its
// LAT's columns) answer it by name.
type Probe struct {
	Name string
	id   int // -1: no Query or Transaction attribute
}

// NewProbe resolves an attribute name.
func NewProbe(name string) Probe { return Probe{Name: name, id: attrID(name)} }

// Of reads the probed attribute of o.
//
//sqlcm:hotpath
func (p Probe) Of(o Object) (sqltypes.Value, bool) {
	switch o := o.(type) {
	case *QueryObject:
		return o.attr(p.id)
	case *TxnObject:
		return o.attr(p.id)
	}
	return o.Get(p.Name)
}

// TimerAttributes lists the Timer schema.
func TimerAttributes() []Attribute {
	return []Attribute{
		{Name: "Name", Kind: sqltypes.KindString, Doc: "timer name"},
		{Name: "Current_Time", Kind: sqltypes.KindTime, Doc: "alarm time"},
		{Name: "Alarm_Count", Kind: sqltypes.KindInt, Doc: "alarm sequence number"},
	}
}

// MonitorAttributes lists the Monitor (monitoring-health) schema.
func MonitorAttributes() []Attribute {
	return []Attribute{
		{Name: "Rule", Kind: sqltypes.KindString, Doc: "affected rule"},
		{Name: "Failures", Kind: sqltypes.KindInt, Doc: "consecutive failures"},
		{Name: "Error", Kind: sqltypes.KindString, Doc: "last error"},
		{Name: "Current_Time", Kind: sqltypes.KindTime, Doc: "incident time"},
	}
}

// LATRowAttributes lists the static part of the LATRow schema. The
// remaining attributes are the columns of the LAT the row was evicted
// from, so their names and kinds depend on the LAT spec.
func LATRowAttributes() []Attribute {
	return []Attribute{
		{Name: "LAT", Kind: sqltypes.KindString, Doc: "source aggregation table"},
	}
}

// classAttributes maps every monitored class to its static schema. Built
// once at init; LATRow is special-cased by callers because its schema is
// partly dynamic.
var classAttributes = map[string][]Attribute{
	ClassQuery:       QueryAttributes(),
	ClassBlocker:     QueryAttributes(),
	ClassBlocked:     QueryAttributes(),
	ClassTransaction: TransactionAttributes(),
	ClassTimer:       TimerAttributes(),
	ClassMonitor:     MonitorAttributes(),
	ClassLATRow:      LATRowAttributes(),
}

// ClassAttributes returns the static schema of a monitored class and
// whether the class exists. For LATRow only the static "LAT" attribute is
// listed; the rest depend on the source LAT's spec.
func ClassAttributes(class string) ([]Attribute, bool) {
	attrs, ok := classAttributes[class]
	return attrs, ok
}

// classIDs numbers the monitored classes densely; the rule engine keeps an
// object slot per class.
var classIDs = map[string]int{
	ClassQuery: 0, ClassBlocker: 1, ClassBlocked: 2, ClassTransaction: 3,
	ClassTimer: 4, ClassMonitor: 5, ClassLATRow: 6,
}

// NumClasses is the number of monitored classes.
const NumClasses = 7

// ClassID returns the dense id of a monitored class.
func ClassID(class string) (int, bool) {
	id, ok := classIDs[class]
	return id, ok
}

// AttrKind resolves one attribute of a monitored class to its SQL kind.
// The second result distinguishes "class unknown or attribute unknown"
// (false) from a resolved attribute.
func AttrKind(class, attr string) (sqltypes.Kind, bool) {
	attrs, ok := classAttributes[class]
	if !ok {
		return sqltypes.KindNull, false
	}
	for _, a := range attrs {
		if a.Name == attr {
			return a.Kind, true
		}
	}
	return sqltypes.KindNull, false
}

// BoundClasses returns the classes an event binds into the rule context
// when it is dispatched (mirrors the hook adapters in internal/event).
// Query.Blocked lists Blocker even though the hook binds it only when a
// lock holder is resolvable: the reference is legal, it may just resolve
// to no object at runtime.
func BoundClasses(ev Event) []string {
	switch ev {
	case EvQueryStart, EvQueryCompile, EvQueryCommit, EvQueryCancel, EvQueryRollback, EvQueryCancelled:
		return []string{ClassQuery}
	case EvQueryBlocked:
		return []string{ClassQuery, ClassBlocked, ClassBlocker}
	case EvQueryBlockReleased:
		return []string{ClassQuery, ClassBlocker, ClassBlocked}
	case EvTxnCommit, EvTxnRollback:
		return []string{ClassTransaction}
	case EvTimerAlarm:
		return []string{ClassTimer}
	case EvLATRowEvicted:
		return []string{ClassLATRow}
	case EvRuleQuarantined:
		return []string{ClassMonitor}
	default:
		return nil
	}
}

// EnumerableClass reports whether the engine can enumerate live objects of
// a class for rules whose condition references it without the event
// binding it (rules.Engine.expand): Query via the active-query list,
// Blocker/Blocked via the lock-wait graph. A reference to any other
// unbound class can never bind, so the rule evaluates over no object
// combinations at all.
func EnumerableClass(class string) bool {
	switch class {
	case ClassQuery, ClassBlocker, ClassBlocked:
		return true
	default:
		return false
	}
}
