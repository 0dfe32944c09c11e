// Package lock implements the engine's lock manager: shared/exclusive
// table and row locks with FIFO queuing, lock upgrades, wait-for-graph
// deadlock detection, cancellation, and blocking notifications.
//
// The notification hooks are the instrumentation points the SQLCM monitor
// uses to expose the Blocker and Blocked monitored classes and the
// Query.Blocked / Query.Block_Released events.
package lock

import (
	"errors"
	"fmt"
	"time"

	"sqlcm/internal/lockcheck"
	"sqlcm/internal/storage"
)

// TxnID identifies a transaction to the lock manager.
type TxnID int64

// Mode is a lock mode.
type Mode uint8

// Lock modes.
const (
	Shared Mode = iota
	Exclusive
)

// String returns "S" or "X".
func (m Mode) String() string {
	if m == Shared {
		return "S"
	}
	return "X"
}

// compatible reports whether a lock in mode a coexists with mode b.
func compatible(a, b Mode) bool { return a == Shared && b == Shared }

// Resource identifies a lockable object: a whole table or a single row.
type Resource struct {
	Table string
	RID   storage.RID
	Row   bool // true for row locks
}

// TableResource returns the table-level resource for name.
func TableResource(name string) Resource { return Resource{Table: name} }

// RowResource returns the row-level resource for (table, rid).
func RowResource(table string, rid storage.RID) Resource {
	return Resource{Table: table, RID: rid, Row: true}
}

// String renders the resource for diagnostics.
func (r Resource) String() string {
	if r.Row {
		return fmt.Sprintf("%s(%d)", r.Table, r.RID)
	}
	return r.Table
}

// Errors returned by Acquire.
var (
	// ErrDeadlock aborts the requester chosen as the deadlock victim.
	ErrDeadlock = errors.New("lock: deadlock detected")
	// ErrCancelled aborts a waiter whose transaction was cancelled.
	ErrCancelled = errors.New("lock: wait cancelled")
	// ErrTimeout aborts a waiter that exceeded the configured lock timeout.
	ErrTimeout = errors.New("lock: wait timeout")
)

// WaiterInfo describes one waiter observed when a blocking lock is
// released.
type WaiterInfo struct {
	Txn    TxnID
	Waited time.Duration
}

// BlockPair is a (blocker, blocked) edge in the current lock-wait graph.
type BlockPair struct {
	Blocker TxnID
	Blocked TxnID
	Res     Resource
	Since   time.Time
}

// Notifier receives blocking events. Implementations must be fast and must
// not call back into the lock manager. A nil Notifier disables
// notifications.
type Notifier interface {
	// Blocked fires when txn starts waiting on res held by holders.
	Blocked(waiter TxnID, res Resource, holders []TxnID)
	// Unblocked fires when a waiter is granted (or gives up) after waiting.
	Unblocked(waiter TxnID, res Resource, waited time.Duration)
	// ReleasedWithWaiters fires when holder releases res while others wait,
	// reporting how long each had waited so far. This is the event behind
	// the paper's "total blocking delay per statement" task (Example 2).
	ReleasedWithWaiters(holder TxnID, res Resource, waiters []WaiterInfo)
}

type request struct {
	txn     TxnID
	mode    Mode
	upgrade bool
	grant   chan error // buffered(1); receives nil on grant
	since   time.Time
}

type queue struct {
	granted map[TxnID]Mode
	waiting []*request
}

// Manager is the lock manager.
type Manager struct {
	// mu protects the queues, held and waitsFor maps. timeout is immutable
	// after construction and deliberately unguarded.
	//sqlcm:lock lock.manager
	//sqlcm:guards queues, held, waitsFor, notifier
	mu       lockcheck.Mutex
	queues   map[Resource]*queue
	held     map[TxnID]map[Resource]Mode // reverse map for release
	waitsFor map[TxnID]map[TxnID]bool    // wait-for graph edges
	notifier Notifier
	timeout  time.Duration // 0 means wait forever
}

// NewManager returns a lock manager. timeout bounds each wait; zero waits
// forever.
func NewManager(timeout time.Duration) *Manager {
	m := &Manager{
		queues:   make(map[Resource]*queue),
		held:     make(map[TxnID]map[Resource]Mode),
		waitsFor: make(map[TxnID]map[TxnID]bool),
		timeout:  timeout,
	}
	m.mu.SetClass("lock.manager")
	return m
}

// SetNotifier installs the blocking-event notifier (nil disables).
func (m *Manager) SetNotifier(n Notifier) {
	m.mu.Lock()
	m.notifier = n
	m.mu.Unlock()
}

// Acquire obtains res in mode for txn, blocking while incompatible locks
// are held. It returns ErrDeadlock if waiting would close a cycle,
// ErrCancelled if Cancel(txn) is called while waiting, and ErrTimeout when
// the configured timeout elapses.
//
//sqlcm:cancellable
func (m *Manager) Acquire(txn TxnID, res Resource, mode Mode) error {
	m.mu.Lock()
	q := m.queues[res]
	if q == nil {
		q = &queue{granted: make(map[TxnID]Mode)}
		m.queues[res] = q
	}

	if have, ok := q.granted[txn]; ok {
		if have == Exclusive || have == mode {
			m.mu.Unlock()
			return nil // already sufficient
		}
		// Upgrade S -> X.
		if m.canUpgradeLocked(q, txn) {
			q.granted[txn] = Exclusive
			m.held[txn][res] = Exclusive
			m.mu.Unlock()
			return nil
		}
		req := &request{txn: txn, mode: Exclusive, upgrade: true, grant: make(chan error, 1), since: time.Now()}
		// Upgrades queue at the front so they are not starved behind new
		// shared requests.
		q.waiting = append([]*request{req}, q.waiting...)
		return m.waitLocked(txn, res, q, req)
	}

	if m.canGrantLocked(q, txn, mode) {
		m.grantLocked(q, txn, res, mode)
		m.mu.Unlock()
		return nil
	}
	req := &request{txn: txn, mode: mode, grant: make(chan error, 1), since: time.Now()}
	q.waiting = append(q.waiting, req)
	return m.waitLocked(txn, res, q, req)
}

// canGrantLocked reports whether txn can take res in mode immediately:
// compatible with all granted locks and no earlier waiter would be starved
// (strict FIFO except compatible-with-everything fast path).
//
//sqlcm:lock-held lock.manager
func (m *Manager) canGrantLocked(q *queue, txn TxnID, mode Mode) bool {
	if len(q.waiting) > 0 {
		return false // FIFO fairness: queue behind existing waiters
	}
	for holder, hm := range q.granted {
		if holder == txn {
			continue
		}
		if !compatible(hm, mode) {
			return false
		}
	}
	return true
}

// canUpgradeLocked reports whether txn (holding S) can upgrade to X now.
//
//sqlcm:lock-held lock.manager
func (m *Manager) canUpgradeLocked(q *queue, txn TxnID) bool {
	for holder := range q.granted {
		if holder != txn {
			return false
		}
	}
	return true
}

//sqlcm:lock-held lock.manager
func (m *Manager) grantLocked(q *queue, txn TxnID, res Resource, mode Mode) {
	q.granted[txn] = mode
	hm := m.held[txn]
	if hm == nil {
		hm = make(map[Resource]Mode)
		m.held[txn] = hm
	}
	hm[res] = mode
}

// waitLocked is entered with m.mu held and the request already queued; it
// releases the mutex, blocks, and returns the outcome.
//
//sqlcm:lock-held lock.manager
//sqlcm:lock-release lock.manager
func (m *Manager) waitLocked(txn TxnID, res Resource, q *queue, req *request) error {
	// Record wait-for edges and run deadlock detection before sleeping.
	holders := make([]TxnID, 0, len(q.granted))
	for holder := range q.granted {
		if holder != txn {
			holders = append(holders, holder)
			m.addEdgeLocked(txn, holder)
		}
	}
	// Also wait for earlier waiters whose requests conflict with ours (they
	// will be granted first).
	for _, w := range q.waiting {
		if w == req || w.txn == txn {
			continue
		}
		if !compatible(w.mode, req.mode) {
			m.addEdgeLocked(txn, w.txn)
		}
	}
	if m.cycleFromLocked(txn) {
		m.removeRequestLocked(q, req)
		m.clearEdgesLocked(txn)
		m.mu.Unlock()
		return fmt.Errorf("%w (txn %d on %s)", ErrDeadlock, txn, res)
	}
	notifier := m.notifier
	m.mu.Unlock()

	if notifier != nil {
		notifier.Blocked(txn, res, holders)
	}

	var timer *time.Timer
	var timeoutCh <-chan time.Time
	if m.timeout > 0 {
		timer = time.NewTimer(m.timeout)
		timeoutCh = timer.C
		defer timer.Stop()
	}

	var err error
	select {
	case err = <-req.grant:
	case <-timeoutCh:
		// Race: a grant may have happened concurrently; prefer it.
		m.mu.Lock()
		select {
		case err = <-req.grant:
		default:
			m.removeRequestLocked(q, req)
			m.clearEdgesLocked(txn)
			err = fmt.Errorf("%w (txn %d on %s after %s)", ErrTimeout, txn, res, m.timeout)
		}
		m.mu.Unlock()
	}

	waited := time.Since(req.since)
	if notifier != nil {
		notifier.Unblocked(txn, res, waited)
	}
	return err
}

// Cancel aborts every wait of txn with ErrCancelled. It does not release
// locks txn already holds (ReleaseAll does that).
func (m *Manager) Cancel(txn TxnID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, q := range m.queues {
		for _, req := range q.waiting {
			if req.txn == txn {
				select {
				case req.grant <- ErrCancelled:
				default:
				}
			}
		}
		q.waiting = filterRequests(q.waiting, txn)
	}
	m.clearEdgesLocked(txn)
}

func filterRequests(reqs []*request, txn TxnID) []*request {
	out := reqs[:0]
	for _, r := range reqs {
		if r.txn != txn {
			out = append(out, r)
		}
	}
	return out
}

// ReleaseAll drops every lock held by txn and wakes eligible waiters.
// Release notifications are delivered after the manager's mutex is dropped
// (still synchronously in the releasing thread, as the paper requires) so
// that rule actions triggered by them may re-enter the lock manager.
func (m *Manager) ReleaseAll(txn TxnID) {
	type releaseNote struct {
		res     Resource
		waiters []WaiterInfo
	}
	var notes []releaseNote

	m.mu.Lock()
	resources := m.held[txn]
	delete(m.held, txn)
	m.clearEdgesLocked(txn)
	for res := range resources {
		q := m.queues[res]
		if q == nil {
			continue
		}
		delete(q.granted, txn)
		if m.notifier != nil && len(q.waiting) > 0 {
			now := time.Now()
			infos := make([]WaiterInfo, 0, len(q.waiting))
			for _, w := range q.waiting {
				infos = append(infos, WaiterInfo{Txn: w.txn, Waited: now.Sub(w.since)})
			}
			notes = append(notes, releaseNote{res: res, waiters: infos})
		}
		m.promoteLocked(res, q)
		if len(q.granted) == 0 && len(q.waiting) == 0 {
			delete(m.queues, res)
		}
	}
	notifier := m.notifier
	m.mu.Unlock()

	if notifier != nil {
		for _, n := range notes {
			notifier.ReleasedWithWaiters(txn, n.res, n.waiters)
		}
	}
}

// promoteLocked grants as many queued requests as compatibility allows, in
// FIFO order (upgrades were queued at the front).
//
//sqlcm:lock-held lock.manager
func (m *Manager) promoteLocked(res Resource, q *queue) {
	for len(q.waiting) > 0 {
		req := q.waiting[0]
		if req.upgrade {
			if !m.canUpgradeLocked(q, req.txn) {
				return
			}
			q.granted[req.txn] = Exclusive
			m.held[req.txn][res] = Exclusive
		} else {
			ok := true
			for holder, hm := range q.granted {
				if holder != req.txn && !compatible(hm, req.mode) {
					ok = false
					break
				}
			}
			if !ok {
				return
			}
			m.grantLocked(q, req.txn, res, req.mode)
		}
		q.waiting = q.waiting[1:]
		m.clearEdgesLocked(req.txn)
		//sqlcm:allow grant is buffered (capacity 1, one waiter); the send cannot block
		req.grant <- nil
	}
}

//sqlcm:lock-held lock.manager
func (m *Manager) removeRequestLocked(q *queue, req *request) {
	for i, r := range q.waiting {
		if r == req {
			q.waiting = append(q.waiting[:i], q.waiting[i+1:]...)
			return
		}
	}
}

// --- wait-for graph ---

//sqlcm:lock-held lock.manager
func (m *Manager) addEdgeLocked(from, to TxnID) {
	s := m.waitsFor[from]
	if s == nil {
		s = make(map[TxnID]bool)
		m.waitsFor[from] = s
	}
	s[to] = true
}

//sqlcm:lock-held lock.manager
func (m *Manager) clearEdgesLocked(txn TxnID) {
	delete(m.waitsFor, txn)
}

// cycleFromLocked reports whether start can reach itself in the wait-for
// graph.
//
//sqlcm:lock-held lock.manager
func (m *Manager) cycleFromLocked(start TxnID) bool {
	seen := map[TxnID]bool{}
	var dfs func(t TxnID) bool
	dfs = func(t TxnID) bool {
		for next := range m.waitsFor[t] {
			if next == start {
				return true
			}
			if !seen[next] {
				seen[next] = true
				if dfs(next) {
					return true
				}
			}
		}
		return false
	}
	return dfs(start)
}

// --- introspection ---

// Held returns the modes txn currently holds (copy).
func (m *Manager) Held(txn TxnID) map[Resource]Mode {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[Resource]Mode, len(m.held[txn]))
	for r, mode := range m.held[txn] {
		out[r] = mode
	}
	return out
}

// BlockSnapshot traverses the current lock queues and returns every
// (blocker, blocked) pair, mirroring the paper's lock-resource-graph
// traversal used when rules are triggered by Timer.Alarm rather than by a
// blocking event. When several transactions share a resource a waiter
// needs, each holder is reported as a blocker.
func (m *Manager) BlockSnapshot() []BlockPair {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []BlockPair
	for res, q := range m.queues {
		for _, w := range q.waiting {
			for holder, hm := range q.granted {
				if holder == w.txn {
					continue
				}
				if !compatible(hm, w.mode) || w.mode == Exclusive || hm == Exclusive {
					out = append(out, BlockPair{
						Blocker: holder,
						Blocked: w.txn,
						Res:     res,
						Since:   w.since,
					})
				}
			}
		}
	}
	return out
}

// WaitingCount returns the number of queued (not yet granted) requests.
func (m *Manager) WaitingCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, q := range m.queues {
		n += len(q.waiting)
	}
	return n
}
