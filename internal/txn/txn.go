// Package txn implements transactions: identifier allocation, strict
// two-phase locking via the lock manager, undo-based rollback, and
// cancellation.
//
// Undo is logical: every row write registers one Write record, which names
// the version the commit stamps and the Undoer that reverts the write;
// rollback runs the undoers in reverse order while the transaction still
// holds its locks, then releases them.
package txn

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sqlcm/internal/lock"
	"sqlcm/internal/storage"
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
	// commit timestamp it observes, taken at Begin (repeatable read), and
	// the Begin's clock reading, which is Start too. Immutable after
	// Begin.
	snapTS int64
	snapAt time.Time

	// mu protects state and the write log. cancelled is atomic; implicit
	// is immutable after Begin.
	//sqlcm:lock txn.txn
	//sqlcm:guards state, writes
	mu        sync.Mutex
	state     State
	writes    []Write
	cancelled atomic.Bool
	implicit  bool // autocommit transaction created for a single statement

	// table and tableMode are the last table lock LockTable took. Strict
	// 2PL holds it to the transaction's end, so a later request it covers
	// skips the lock manager. Only the goroutine running the transaction
	// touches them.
	table     string
	tableMode lock.Mode
}

// Write is one change a transaction made: the version its commit stamps
// (the zero Ref: none) and the Undoer that reverts it on rollback (nil:
// none), with the row and an undoer-defined code saying what to revert.
type Write struct {
	Ver storage.Ref
	By  Undoer
	RID storage.RID
	Op  uint8
}

// Undoer reverts writes of a transaction that rolls back; self is that
// transaction.
type Undoer interface {
	Undo(self lock.TxnID, w Write) error
}

// undoFunc is an inverse action registered through OnRollback.
type undoFunc func() error

func (f undoFunc) Undo(lock.TxnID, Write) error { return f() }

// Wrote registers one change: the commit stamps w.Ver, a rollback calls
// w.By.
func (t *Txn) Wrote(w Write) {
	t.mu.Lock()
	t.writes = append(t.writes, w)
	t.mu.Unlock()
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

// OnCommit registers a version the transaction wrote: the commit stamps it
// with the commit timestamp inside the commit critical section.
func (t *Txn) OnCommit(v storage.Ref) { t.Wrote(Write{Ver: v}) }

// State returns the current lifecycle state.
func (t *Txn) State() State {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

// OnRollback registers an inverse action, executed (in reverse order) if
// the transaction rolls back.
func (t *Txn) OnRollback(fn func() error) { t.Wrote(Write{By: undoFunc(fn)}) }

// Cancel marks the transaction cancelled. Executors observe it via
// CheckCancelled; lock waits are interrupted by the manager.
func (t *Txn) Cancel() { t.cancelled.Store(true) }

// Cancelled reports whether Cancel was called.
func (t *Txn) Cancelled() bool { return t.cancelled.Load() }

// CheckCancelled returns ErrCancelled once the transaction is cancelled.
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
	// stamp the transaction's versions, then publish the timestamp.
	// Stamping stores one atomic per version, so the class is a leaf.
	//sqlcm:lock txn.commit
	//sqlcm:guards none
	commitMu sync.Mutex

	// mu protects the active-transaction map. The server's timeout
	// watchdog cancels a statement's transaction (Cancel) with its
	// server.deadline held.
	//sqlcm:lock txn.active after server.deadline
	//sqlcm:guards active
	mu     sync.Mutex
	active map[lock.TxnID]*Txn
}

// NewManager returns a transaction manager bound to the lock manager.
func NewManager(locks *lock.Manager) *Manager {
	return &Manager{locks: locks, active: make(map[lock.TxnID]*Txn)}
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
	// One clock reading serves as both the start and the snapshot time.
	now := time.Now()
	t := &Txn{
		ID:       lock.TxnID(m.seq.Add(1)),
		Start:    now,
		snapAt:   now,
		state:    Active,
		implicit: implicit,
	}
	// Register before reading the snapshot horizon: once the transaction
	// is visible to Watermark, the horizon can never pass the snapshot it
	// is about to take, so pruning cannot steal versions it must see.
	m.mu.Lock()
	m.active[t.ID] = t
	t.snapTS = m.lastCommit.Load()
	m.mu.Unlock()
	return t
}

// LastCommit returns the highest published commit timestamp: every
// committed version carries a timestamp at or below it.
func (m *Manager) LastCommit() int64 { return m.lastCommit.Load() }

// end moves an active t to state, by the named operation, and hands over
// its write log.
func (t *Txn) end(state State, op string) ([]Write, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != Active {
		return nil, fmt.Errorf("txn: %s of %s transaction %d", op, t.state, t.ID)
	}
	t.state = state
	writes := t.writes
	t.writes = nil
	return writes, nil
}

// Commit finishes the transaction and releases its locks.
func (m *Manager) Commit(t *Txn) error {
	writes, err := t.end(Committed, "commit")
	if err != nil {
		return err
	}

	// Writer commit: allocate the next timestamp, stamp every version the
	// transaction wrote, then publish the timestamp — all before locks
	// release, so the next writer (and every later snapshot) sees the
	// stamped versions. Read-only commits skip the oracle entirely.
	if len(writes) > 0 {
		m.commitMu.Lock()
		committed := m.lastCommit.Load() + 1
		for _, w := range writes {
			if w.Ver != (storage.Ref{}) {
				w.Ver.SetCommit(committed)
			}
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
	writes, err := t.end(Aborted, "rollback")
	if err != nil {
		return err
	}
	var firstErr error
	for i := len(writes) - 1; i >= 0; i-- {
		w := writes[i]
		if w.By == nil {
			continue
		}
		if err := w.By.Undo(t.ID, w); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("txn: undo failed: %w", err)
		}
	}
	m.finish(t)
	return firstErr
}

// LockTable takes table's lock in mode for t, tagged with tag
// (lock.Manager.AcquireTagged), unless the last table lock t took is that
// table's in mode or in X: strict 2PL releases nothing before the
// transaction ends, so the lock manager would find it held.
func (m *Manager) LockTable(t *Txn, table string, mode lock.Mode, tag any) error {
	if t.table == table && (t.tableMode == mode || t.tableMode == lock.Exclusive) {
		return nil
	}
	if err := m.locks.AcquireTagged(t.ID, lock.TableResource(table), mode, tag); err != nil {
		return err
	}
	t.table, t.tableMode = table, mode
	return nil
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
