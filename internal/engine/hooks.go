package engine

import (
	"sync/atomic"
	"time"

	"sqlcm/internal/lock"
	"sqlcm/internal/plan"
	"sqlcm/internal/storage"
	"sqlcm/internal/txn"
)

// QueryType classifies a monitored statement.
type QueryType string

// Statement types exposed by the Query_Type probe.
const (
	QuerySelect QueryType = "SELECT"
	QueryInsert QueryType = "INSERT"
	QueryUpdate QueryType = "UPDATE"
	QueryDelete QueryType = "DELETE"
)

// QueryInfo is the engine-side record of one executing statement. It is the
// raw material for SQLCM's Query monitored class: its fields and counters
// are the probes of Appendix A.
type QueryInfo struct {
	ID        int64
	SessionID int64
	User      string
	App       string
	// RemoteAddr is the client address of the owning session ("" for
	// embedded sessions); SessionStart is when that session connected.
	// Together they feed the connection-scoped probes (Remote_Addr,
	// Connect_Time, Session_Age) so rules can target connections.
	RemoteAddr   string
	SessionStart time.Time
	Text         string
	Type         QueryType
	StartTime    time.Time

	// Populated at compile time (after optimization).
	Logical       plan.Logical
	Physical      plan.Physical
	EstimatedCost float64
	PlanCacheHit  bool
	// Instances counts executions of this cached plan (its template),
	// including this one.
	Instances int64
	// Sigs is the cached plan's signature slot (nil without a plan).
	Sigs *SigSlot

	// The statement's transaction, and its record (nil for a statement
	// shed before it ran).
	TxnID   lock.TxnID
	Txn     *txn.Txn
	TxnInfo *TxnInfo

	// MVCC snapshot context: SnapshotTS is the commit-timestamp horizon
	// the statement's transaction reads at, SnapshotAt when that snapshot was taken (the
	// Snapshot_Age probe measures against it), and MVCC points at the
	// engine-wide version-store counters (Versions_Pruned /
	// Versions_Retained probes). All set before the session publishes the
	// record.
	SnapshotTS int64
	SnapshotAt time.Time
	MVCC       *storage.VersionStats

	// Live counters, updated by the lock-manager hooks.
	timeBlockedNanos atomic.Int64
	timesBlocked     atomic.Int64
	queriesBlocked   atomic.Int64
	// maxChain is the longest version chain any read of this statement
	// walked (the Version_Chain_Length probe); written once after the
	// executor returns, read by rule evaluation.
	maxChain atomic.Int64

	// Optimization timing, input to the signature-overhead experiment.
	OptimizeTime time.Duration

	// cancelReason records the first defensive cancellation applied to
	// the statement (CancelReason values); 0 (CancelNone) means none.
	// First-wins CAS: a statement cancelled by both a timeout and a
	// drain keeps whichever reason landed first.
	cancelReason atomic.Int32

	// phase is where the statement is (phaseRunning, phaseEnding,
	// phaseDone).
	phase atomic.Int32
}

// Statement phases: its body runs (CancelCurrent can cancel it), its body
// has returned and it commits and raises its hooks (it is still active),
// and it has committed or aborted.
const (
	phaseRunning int32 = iota
	phaseEnding
	phaseDone
)

// MarkCancelled records a defensive cancellation reason, first-wins. It
// reports whether this call was the one that set the reason.
func (q *QueryInfo) MarkCancelled(r CancelReason) bool {
	return q.cancelReason.CompareAndSwap(int32(CancelNone), int32(r))
}

// CancelReason returns the defensive-cancellation reason (CancelNone if
// the statement was never defensively cancelled). It feeds the
// Cancel_Reason probe.
func (q *QueryInfo) CancelReason() CancelReason {
	return CancelReason(q.cancelReason.Load())
}

// TimeBlocked returns the total time this query spent waiting on locks.
func (q *QueryInfo) TimeBlocked() time.Duration {
	return time.Duration(q.timeBlockedNanos.Load())
}

// TimesBlocked returns how many times this query waited on a lock.
func (q *QueryInfo) TimesBlocked() int64 { return q.timesBlocked.Load() }

// QueriesBlocked returns how many waiters this query's lock releases have
// unblocked (the Queries_Blocked probe).
func (q *QueryInfo) QueriesBlocked() int64 { return q.queriesBlocked.Load() }

// Done reports whether the query has finished (committed or aborted).
func (q *QueryInfo) Done() bool { return q.phase.Load() == phaseDone }

// AddBlocked accumulates one lock wait on the waiter side.
func (q *QueryInfo) AddBlocked(d time.Duration) {
	q.timeBlockedNanos.Add(int64(d))
	q.timesBlocked.Add(1)
}

// AddQueryBlocked increments the blocker-side counter.
func (q *QueryInfo) AddQueryBlocked() { q.queriesBlocked.Add(1) }

// NoteMaxChain records the longest version chain the statement walked.
func (q *QueryInfo) NoteMaxChain(n int) { q.maxChain.Store(int64(n)) }

// MaxChain returns the longest version chain the statement walked (the
// Version_Chain_Length probe; 0 for writes).
func (q *QueryInfo) MaxChain() int64 { return q.maxChain.Load() }

// SigSlot holds what the monitor computes once per cached plan, its
// signatures (§4.2). It lives on the plan-cache entry, so evicting a plan
// frees its signatures too.
type SigSlot struct{ atomic.Value }

// TxnInfo is the engine-side record of one transaction, the raw material
// for the Transaction monitored class.
type TxnInfo struct {
	ID        lock.TxnID
	SessionID int64
	User      string
	App       string
	StartTime time.Time
	Implicit  bool
	// Tally is the hook set's running account of the transaction's
	// statements. Only the goroutine running the transaction raises its
	// Query.Commit and Transaction events, so it alone touches Tally.
	Tally TxnTally
}

// TxnTally accumulates a transaction's statements for its Transaction
// object (§4.2): the running logical and physical transaction signatures
// (signature.ID values; zero before the first statement), the statement
// count and the summed lock wait.
type TxnTally struct {
	Logical, Physical uint64
	Statements        int64
	Blocked           time.Duration
}

// BlockEvent describes a blocking relationship surfaced by the lock
// manager, resolved to queries.
type BlockEvent struct {
	Waiter   *QueryInfo
	Holders  []*QueryInfo // nil entries for holders with no live query
	Resource lock.Resource
	Waited   time.Duration // set on release/unblock events
}

// Hooks receives engine instrumentation callbacks. All callbacks run
// synchronously in the thread that triggered them, exactly as SQLCM's rule
// evaluation is interleaved with query processing in the paper. A nil hook
// set disables monitoring entirely (the "no rules" fast path).
type Hooks interface {
	// QueryStart fires when statement execution begins.
	QueryStart(q *QueryInfo)
	// QueryCompiled fires after optimization: logical and physical plans
	// and the estimated cost are available. This is where signatures are
	// computed (and cached alongside the plan).
	QueryCompiled(q *QueryInfo)
	// QueryCommit fires when a statement completes successfully.
	QueryCommit(q *QueryInfo, duration time.Duration)
	// QueryAbort fires when a statement fails; cancelled distinguishes
	// Query.Cancel from Query.Rollback.
	QueryAbort(q *QueryInfo, duration time.Duration, cancelled bool)
	// QueryCancelled fires (after QueryAbort) when a statement was
	// terminated by a defensive cancellation — statement timeout,
	// admission-control shed, server drain, or an explicit admin/rule
	// cancel — with the attributed reason. Shed statements never started
	// executing, so for them this is the only event that fires.
	QueryCancelled(q *QueryInfo, duration time.Duration, reason CancelReason)
	// QueryBlocked fires when a statement starts waiting on a lock.
	QueryBlocked(ev BlockEvent)
	// QueryUnblocked fires when a waiting statement resumes.
	QueryUnblocked(ev BlockEvent)
	// BlockReleased fires in the releasing thread when a lock release
	// unblocks waiters; one event per (holder, waiter) pair would be
	// delivered by the rule engine, so the raw list is passed through.
	BlockReleased(holder *QueryInfo, waiters []BlockEvent)
	// TxnBegin/TxnCommit/TxnRollback delimit transactions.
	TxnBegin(t *TxnInfo)
	TxnCommit(t *TxnInfo, duration time.Duration)
	TxnRollback(t *TxnInfo, duration time.Duration)
}

// NopHooks is an embeddable no-op Hooks implementation.
type NopHooks struct{}

// QueryStart implements Hooks.
func (NopHooks) QueryStart(*QueryInfo) {}

// QueryCompiled implements Hooks.
func (NopHooks) QueryCompiled(*QueryInfo) {}

// QueryCommit implements Hooks.
func (NopHooks) QueryCommit(*QueryInfo, time.Duration) {}

// QueryAbort implements Hooks.
func (NopHooks) QueryAbort(*QueryInfo, time.Duration, bool) {}

// QueryCancelled implements Hooks.
func (NopHooks) QueryCancelled(*QueryInfo, time.Duration, CancelReason) {}

// QueryBlocked implements Hooks.
func (NopHooks) QueryBlocked(BlockEvent) {}

// QueryUnblocked implements Hooks.
func (NopHooks) QueryUnblocked(BlockEvent) {}

// BlockReleased implements Hooks.
func (NopHooks) BlockReleased(*QueryInfo, []BlockEvent) {}

// TxnBegin implements Hooks.
func (NopHooks) TxnBegin(*TxnInfo) {}

// TxnCommit implements Hooks.
func (NopHooks) TxnCommit(*TxnInfo, time.Duration) {}

// TxnRollback implements Hooks.
func (NopHooks) TxnRollback(*TxnInfo, time.Duration) {}
