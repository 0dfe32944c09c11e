// Package txn implements transactions: identifier allocation, strict
// two-phase locking via the lock manager, undo-based rollback, and
// cancellation.
//
// Undo is logical: every mutation registers an inverse action; rollback
// executes the actions in reverse order while the transaction still holds
// its locks, then releases them.
package txn

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"sqlcm/internal/lock"
	"sqlcm/internal/lockcheck"
)

// State is the lifecycle state of a transaction.
type State uint8

// Transaction states.
const (
	Active State = iota
	Committed
	Aborted
)

// String renders the state.
func (s State) String() string {
	switch s {
	case Active:
		return "active"
	case Committed:
		return "committed"
	default:
		return "aborted"
	}
}

// ErrCancelled is returned by CheckCancelled once a transaction has been
// cancelled.
var ErrCancelled = errors.New("txn: cancelled")

// Txn is a transaction handle.
type Txn struct {
	ID    lock.TxnID
	Start time.Time

	// snapTS/snapAt fix the transaction's MVCC snapshot: the highest
	// commit timestamp it observes, taken at Begin (repeatable read).
	// Immutable after Begin.
	snapTS int64
	snapAt time.Time

	// mu protects state, the undo log, and the commit-stamp list.
	// cancelled is atomic; implicit is immutable after Begin.
	//sqlcm:lock txn.txn
	//sqlcm:guards state, undo, stamps
	mu        lockcheck.Mutex
	state     State
	undo      []func() error
	stamps    []func(commitTS int64)
	cancelled atomic.Bool
	implicit  bool // autocommit transaction created for a single statement
}

// Implicit reports whether the transaction was opened implicitly
// (autocommit) rather than by an explicit BEGIN.
func (t *Txn) Implicit() bool { return t.implicit }

// SnapshotTS returns the commit timestamp horizon of the transaction's
// read snapshot.
func (t *Txn) SnapshotTS() int64 { return t.snapTS }

// SnapshotAt returns the wall-clock time the snapshot was taken (the
// Snapshot_Age probe).
func (t *Txn) SnapshotAt() time.Time { return t.snapAt }

// OnCommit registers a stamp action run inside the commit critical
// section with the transaction's commit timestamp — version stamping. The
// actions must not block or take locks.
func (t *Txn) OnCommit(fn func(commitTS int64)) {
	t.mu.Lock()
	t.stamps = append(t.stamps, fn)
	t.mu.Unlock()
}

// State returns the current lifecycle state.
func (t *Txn) State() State {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

// OnRollback registers an inverse action, executed (in reverse order) if
// the transaction rolls back.
func (t *Txn) OnRollback(fn func() error) {
	t.mu.Lock()
	t.undo = append(t.undo, fn)
	t.mu.Unlock()
}

// Cancel marks the transaction cancelled. Executors observe it via
// CheckCancelled; lock waits are interrupted by the manager.
func (t *Txn) Cancel() { t.cancelled.Store(true) }

// Cancelled reports whether Cancel was called.
func (t *Txn) Cancelled() bool { return t.cancelled.Load() }

// CheckCancelled returns ErrCancelled once the transaction is cancelled.
//
//sqlcm:cancelpoint
func (t *Txn) CheckCancelled() error {
	if t.cancelled.Load() {
		return fmt.Errorf("%w (txn %d)", ErrCancelled, t.ID)
	}
	return nil
}

// Manager creates and finalizes transactions.
type Manager struct {
	locks *lock.Manager
	seq   atomic.Int64

	// lastCommit is the commit-timestamp oracle: the highest timestamp
	// any committed writer has published. Snapshots load it lock-free.
	lastCommit atomic.Int64

	// commitMu serializes writer commits: allocate the next timestamp,
	// stamp the transaction's versions, then publish the timestamp. The
	// stamp actions touch only atomics, so the class is a leaf.
	//sqlcm:lock txn.commit
	//sqlcm:guards none
	commitMu lockcheck.Mutex

	// mu protects the active-transaction map.
	//sqlcm:lock txn.active
	//sqlcm:guards active
	mu     lockcheck.Mutex
	active map[lock.TxnID]*Txn
}

// NewManager returns a transaction manager bound to the lock manager.
func NewManager(locks *lock.Manager) *Manager {
	m := &Manager{locks: locks, active: make(map[lock.TxnID]*Txn)}
	m.mu.SetClass("txn.active")
	m.commitMu.SetClass("txn.commit")
	return m
}

// Watermark returns the version-garbage horizon: the oldest snapshot any
// in-flight transaction holds (or the newest commit timestamp when the
// system is idle). Versions superseded at or before the watermark are
// invisible to every live and future snapshot.
func (m *Manager) Watermark() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	wm := m.lastCommit.Load()
	for _, t := range m.active {
		if t.snapTS < wm {
			wm = t.snapTS
		}
	}
	return wm
}

// Locks exposes the lock manager.
func (m *Manager) Locks() *lock.Manager { return m.locks }

// Begin starts a transaction. implicit marks autocommit transactions.
func (m *Manager) Begin(implicit bool) *Txn {
	t := &Txn{
		ID:       lock.TxnID(m.seq.Add(1)),
		Start:    time.Now(),
		state:    Active,
		implicit: implicit,
	}
	t.mu.SetClass("txn.txn")
	// Register before reading the snapshot horizon: once the transaction
	// is visible to Watermark, the horizon can never pass the snapshot it
	// is about to take, so pruning cannot steal versions it must see.
	m.mu.Lock()
	m.active[t.ID] = t
	t.snapTS = m.lastCommit.Load()
	t.snapAt = time.Now()
	m.mu.Unlock()
	return t
}

// Commit finishes the transaction and releases its locks.
func (m *Manager) Commit(t *Txn) error {
	t.mu.Lock()
	if t.state != Active {
		s := t.state
		t.mu.Unlock()
		return fmt.Errorf("txn: commit of %s transaction %d", s, t.ID)
	}
	t.state = Committed
	t.undo = nil
	stamps := t.stamps
	t.stamps = nil
	t.mu.Unlock()

	// Writer commit: allocate the next timestamp, stamp every version the
	// transaction wrote, then publish the timestamp — all before locks
	// release, so the next writer (and every later snapshot) sees the
	// stamped versions. Read-only commits skip the oracle entirely.
	if len(stamps) > 0 {
		m.commitMu.Lock()
		committed := m.lastCommit.Load() + 1
		for _, fn := range stamps {
			fn(committed)
		}
		m.lastCommit.Store(committed)
		m.commitMu.Unlock()
	}
	m.finish(t)
	return nil
}

// Rollback undoes the transaction's mutations (in reverse order) and
// releases its locks. Undo errors are collected but do not stop the
// remaining undo actions.
func (m *Manager) Rollback(t *Txn) error {
	t.mu.Lock()
	if t.state != Active {
		s := t.state
		t.mu.Unlock()
		return fmt.Errorf("txn: rollback of %s transaction %d", s, t.ID)
	}
	t.state = Aborted
	undo := t.undo
	t.undo = nil
	t.stamps = nil
	t.mu.Unlock()

	var firstErr error
	for i := len(undo) - 1; i >= 0; i-- {
		if err := undo[i](); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("txn: undo failed: %w", err)
		}
	}
	m.finish(t)
	return firstErr
}

// Cancel interrupts a transaction: waiters wake with an error and the
// cancelled flag trips executor checks. The owner is still responsible for
// rolling back.
func (m *Manager) Cancel(id lock.TxnID) bool {
	m.mu.Lock()
	t, ok := m.active[id]
	m.mu.Unlock()
	if !ok {
		return false
	}
	t.Cancel()
	m.locks.Cancel(id)
	return true
}

// Active returns the number of in-flight transactions.
func (m *Manager) Active() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.active)
}

// Lookup returns the active transaction with the given id.
func (m *Manager) Lookup(id lock.TxnID) (*Txn, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.active[id]
	return t, ok
}

func (m *Manager) finish(t *Txn) {
	m.locks.ReleaseAll(t.ID)
	m.mu.Lock()
	delete(m.active, t.ID)
	m.mu.Unlock()
}
