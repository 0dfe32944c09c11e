// Package engine is the embedded relational database engine SQLCM monitors:
// sessions, SQL execution (parse → plan → lock → execute), stored
// procedures, a plan cache, transactions with strict two-phase table
// locking, and the instrumentation hook points (Hooks) that the monitoring
// framework attaches to.
package engine

import (
	"fmt"
	"sync/atomic"
	"time"

	"sqlcm/internal/catalog"
	"sqlcm/internal/exec"
	"sqlcm/internal/lock"
	"sqlcm/internal/lockcheck"
	"sqlcm/internal/plan"
	"sqlcm/internal/sqlparser"
	"sqlcm/internal/sqltypes"
	"sqlcm/internal/storage"
	"sqlcm/internal/txn"
)

// Config tunes an Engine.
type Config struct {
	// LockTimeout bounds lock waits; zero waits forever (deadlock detection
	// still applies). Default 10s.
	LockTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.LockTimeout == 0 {
		c.LockTimeout = 10 * time.Second
	}
	return c
}

// Engine is an embedded relational database instance.
type Engine struct {
	cfg   Config
	cat   *catalog.Catalog
	reg   *exec.Registry
	locks *lock.Manager
	tm    *txn.Manager

	// hooks is the installed hook set, published whole (nil: none); every
	// statement loads it, so reading it takes no lock.
	hooks atomic.Pointer[Hooks]

	// planMu protects the plan cache.
	//sqlcm:lock engine.plan
	//sqlcm:guards planCache
	planMu    lockcheck.Mutex
	planCache map[string]*cachedPlan

	// queryMu protects the active-query maps.
	//sqlcm:lock engine.query
	//sqlcm:guards active, byTxn
	queryMu lockcheck.RWMutex
	// active queries by query id and the current query of each transaction
	active map[int64]*QueryInfo
	byTxn  map[lock.TxnID]*QueryInfo

	querySeq   atomic.Int64
	sessionSeq atomic.Int64
	closed     atomic.Bool

	// mvccStats aggregates version-store counters across all tables (the
	// Versions_Pruned / Versions_Retained probes).
	mvccStats storage.VersionStats

	// planGen counts plan-cache invalidations (DDL). Prepared statements
	// snapshot it and re-plan when it moves, so a handle never executes a
	// plan compiled against dropped or re-indexed schema.
	planGen atomic.Int64
}

type cachedPlan struct {
	stmt      sqlparser.Statement
	logical   plan.Logical
	physical  plan.Physical
	estCost   float64
	qtype     QueryType
	optimize  time.Duration
	instances atomic.Int64
}

// Open creates an engine.
func Open(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	locks := lock.NewManager(cfg.LockTimeout)
	e := &Engine{
		cfg:       cfg,
		cat:       catalog.New(),
		reg:       exec.NewRegistry(),
		locks:     locks,
		tm:        txn.NewManager(locks),
		planCache: make(map[string]*cachedPlan),
		active:    make(map[int64]*QueryInfo),
		byTxn:     make(map[lock.TxnID]*QueryInfo),
	}
	e.planMu.SetClass("engine.plan")
	e.queryMu.SetClass("engine.query")
	locks.SetNotifier(&lockBridge{e: e})
	return e, nil
}

// pruneAfterWrite is the version-garbage trigger: a writer calls it on the
// table it wrote, still holding that table's exclusive lock, and runs the
// pass itself when the table's version store says one is due. The lock
// is what a pass needs (no other writer is in its commit window on this
// table, readers only ever follow atomics), the watermark is read under it,
// and the writer's own uncommitted versions sit above every version the
// pass may cut, so rolling the writer back afterwards still finds them.
func (e *Engine) pruneAfterWrite(table string) {
	ts, err := e.reg.Store(table)
	if err != nil {
		return // dropped under the statement: nothing left to collect
	}
	if wm, due := ts.Vers.PruneDue(e.tm.Watermark); due {
		ts.PruneVersions(wm)
	}
}

// PruneVersionsNow sweeps every table's garbage set at the current
// watermark (oldest active snapshot), whatever the write-path trigger
// thinks is due: shutdown, tests and measurements call it to reclaim what
// tables nobody writes any more were left holding. Each table is pruned
// under its exclusive lock inside a short internal transaction, so the
// sweep serializes against writers exactly like a statement.
func (e *Engine) PruneVersionsNow() {
	for _, name := range e.reg.Names() {
		ts, err := e.reg.Store(name)
		if err != nil {
			continue
		}
		t := e.tm.Begin(true)
		if err := e.locks.Acquire(t.ID, lock.TableResource(name), lock.Exclusive); err != nil {
			e.tm.Rollback(t) //nolint:errcheck
			continue         // contended or cancelled: the next pass retries
		}
		// Watermark is read after the X lock is held: no writer on this
		// table is in its commit window, and any snapshot taken later
		// observes at least the newest committed timestamp.
		ts.PruneVersions(e.tm.Watermark())
		e.tm.Commit(t) //nolint:errcheck
	}
}

// MVCCStats exposes the cross-table version-store counters (monitoring
// probes and tests).
func (e *Engine) MVCCStats() *storage.VersionStats { return &e.mvccStats }

// Close shuts the engine down. Nothing is persisted: every table lives in
// memory only.
func (e *Engine) Close() error {
	e.closed.Store(true)
	return nil
}

// SetHooks installs (or, with nil, removes) the monitoring hook set.
func (e *Engine) SetHooks(h Hooks) {
	if h == nil {
		e.hooks.Store(nil)
		return
	}
	e.hooks.Store(&h)
}

func (e *Engine) hooksRef() Hooks {
	if h := e.hooks.Load(); h != nil {
		return *h
	}
	return nil
}

// Catalog exposes the metadata catalog.
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// Pool exists only for the frozen bench/ harness, which still reads
// buffer-pool counters; there is no pool, so every counter is zero. It goes
// with ROADMAP item 2.
func (e *Engine) Pool() ZeroPool { return ZeroPool{} }

// ZeroPool is what Pool returns.
type ZeroPool struct{}

// Stats returns zero hits, misses and evictions.
func (ZeroPool) Stats() (s struct{ Hits, Misses, Evictions int64 }) { return s }

// Locks exposes the lock manager (block-graph snapshots).
func (e *Engine) Locks() *lock.Manager { return e.locks }

// Txns exposes the transaction manager.
func (e *Engine) Txns() *txn.Manager { return e.tm }

// Stores exposes the table storage registry.
func (e *Engine) Stores() *exec.Registry { return e.reg }

// ---------------------------------------------------------------------------
// Query registry (active statements)
// ---------------------------------------------------------------------------

func (e *Engine) registerQuery(q *QueryInfo) {
	e.queryMu.Lock()
	e.active[q.ID] = q
	e.byTxn[q.TxnID] = q
	e.queryMu.Unlock()
}

// unregisterQuery removes a finished statement from the active set. The
// byTxn mapping is intentionally retained until the transaction ends: a
// transaction that holds locks after its statement completed must still
// resolve to a query when its eventual lock release unblocks waiters (the
// paper's Blocker object refers to the blocking statement).
func (e *Engine) unregisterQuery(q *QueryInfo) {
	q.done.Store(true)
	e.queryMu.Lock()
	delete(e.active, q.ID)
	e.queryMu.Unlock()
}

// queryForTxn resolves a transaction to its currently executing (or most
// recent) statement.
func (e *Engine) queryForTxn(id lock.TxnID) *QueryInfo {
	e.queryMu.RLock()
	defer e.queryMu.RUnlock()
	return e.byTxn[id]
}

// QueryInfoForTxn resolves a transaction to its current (or most recent)
// statement; used by the monitor to materialize Blocker/Blocked objects
// from lock-graph snapshots.
func (e *Engine) QueryInfoForTxn(id lock.TxnID) (*QueryInfo, bool) {
	q := e.queryForTxn(id)
	return q, q != nil
}

// QuerySnapshot is a point-in-time view of an executing statement, the unit
// returned by the polling API that client-side monitoring tools (the PULL
// baselines) consume.
type QuerySnapshot struct {
	ID          int64
	SessionID   int64
	User, App   string
	Text        string
	Type        QueryType
	StartTime   time.Time
	Elapsed     time.Duration
	TimeBlocked time.Duration
	TxnID       lock.TxnID
}

// ActiveQueries returns a snapshot of currently executing statements. Each
// call does real work proportional to the number of active queries —
// exactly the per-poll cost the paper's PULL approaches pay.
func (e *Engine) ActiveQueries() []QuerySnapshot {
	now := time.Now()
	e.queryMu.RLock()
	defer e.queryMu.RUnlock()
	out := make([]QuerySnapshot, 0, len(e.active))
	for _, q := range e.active {
		out = append(out, QuerySnapshot{
			ID:          q.ID,
			SessionID:   q.SessionID,
			User:        q.User,
			App:         q.App,
			Text:        q.Text,
			Type:        q.Type,
			StartTime:   q.StartTime,
			Elapsed:     now.Sub(q.StartTime),
			TimeBlocked: q.TimeBlocked(),
			TxnID:       q.TxnID,
		})
	}
	return out
}

// ActiveQueryInfos returns the live QueryInfo records (used by the rule
// engine when a Timer-triggered rule iterates over all Query objects).
func (e *Engine) ActiveQueryInfos() []*QueryInfo {
	e.queryMu.RLock()
	defer e.queryMu.RUnlock()
	out := make([]*QueryInfo, 0, len(e.active))
	for _, q := range e.active {
		out = append(out, q)
	}
	return out
}

// CancelQuery cancels the statement with the given id (and its transaction
// lock waits). It reports whether the query was found. The cancellation
// is attributed as an admin cancel (rules' CANCEL action, operators).
func (e *Engine) CancelQuery(id int64) bool {
	e.queryMu.RLock()
	q, ok := e.active[id]
	e.queryMu.RUnlock()
	if !ok {
		return false
	}
	q.MarkCancelled(CancelAdmin)
	return e.tm.Cancel(q.TxnID)
}

// ---------------------------------------------------------------------------
// Lock notifications → query-level blocking events
// ---------------------------------------------------------------------------

type lockBridge struct{ e *Engine }

func (b *lockBridge) Blocked(waiter lock.TxnID, res lock.Resource, holders []lock.TxnID) {
	h := b.e.hooksRef()
	wq := b.e.queryForTxn(waiter)
	if wq == nil {
		return
	}
	if h == nil {
		return
	}
	hqs := make([]*QueryInfo, 0, len(holders))
	for _, ht := range holders {
		hqs = append(hqs, b.e.queryForTxn(ht))
	}
	h.QueryBlocked(BlockEvent{Waiter: wq, Holders: hqs, Resource: res})
}

func (b *lockBridge) Unblocked(waiter lock.TxnID, res lock.Resource, waited time.Duration) {
	wq := b.e.queryForTxn(waiter)
	if wq == nil {
		return
	}
	wq.AddBlocked(waited)
	if h := b.e.hooksRef(); h != nil {
		h.QueryUnblocked(BlockEvent{Waiter: wq, Resource: res, Waited: waited})
	}
}

func (b *lockBridge) ReleasedWithWaiters(holder lock.TxnID, res lock.Resource, waiters []lock.WaiterInfo) {
	hq := b.e.queryForTxn(holder)
	var evs []BlockEvent
	for _, w := range waiters {
		if hq != nil {
			hq.AddQueryBlocked()
		}
		wq := b.e.queryForTxn(w.Txn)
		if wq == nil {
			continue
		}
		evs = append(evs, BlockEvent{Waiter: wq, Resource: res, Waited: w.Waited})
	}
	if h := b.e.hooksRef(); h != nil && hq != nil && len(evs) > 0 {
		h.BlockReleased(hq, evs)
	}
}

// ---------------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------------

// getPlan returns the cached plan for sql, compiling it on a miss. DDL is
// never cached.
func (e *Engine) getPlan(sql string) (*cachedPlan, bool, error) {
	e.planMu.Lock()
	if cp, ok := e.planCache[sql]; ok {
		e.planMu.Unlock()
		return cp, true, nil
	}
	e.planMu.Unlock()

	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, false, err
	}
	switch stmt.(type) {
	case *sqlparser.Select, *sqlparser.Insert, *sqlparser.Update, *sqlparser.Delete:
	default:
		return &cachedPlan{stmt: stmt}, false, nil // not cacheable, not a query
	}
	start := time.Now()
	l, err := plan.BuildLogical(stmt, e.cat)
	if err != nil {
		return nil, false, err
	}
	p, err := plan.Optimize(l, e.cat)
	if err != nil {
		return nil, false, err
	}
	optTime := time.Since(start)
	cp := &cachedPlan{
		stmt:     stmt,
		logical:  l,
		physical: p,
		estCost:  p.EstCost(),
		qtype:    queryTypeOf(stmt),
		optimize: optTime,
	}
	// Another session may have compiled the same text meanwhile: the first
	// plan stored wins and every session runs that one, so the signature
	// cache (keyed by plan identity) computes once per text.
	e.planMu.Lock()
	defer e.planMu.Unlock()
	if winner, ok := e.planCache[sql]; ok {
		return winner, false, nil
	}
	e.planCache[sql] = cp
	return cp, false, nil
}

// invalidatePlans clears the plan cache (after DDL).
func (e *Engine) invalidatePlans() {
	e.planMu.Lock()
	e.planCache = make(map[string]*cachedPlan)
	e.planMu.Unlock()
	e.planGen.Add(1)
}

// PlanCacheSize returns the number of cached plans.
func (e *Engine) PlanCacheSize() int {
	e.planMu.Lock()
	defer e.planMu.Unlock()
	return len(e.planCache)
}

func queryTypeOf(stmt sqlparser.Statement) QueryType {
	switch stmt.(type) {
	case *sqlparser.Select:
		return QuerySelect
	case *sqlparser.Insert:
		return QueryInsert
	case *sqlparser.Update:
		return QueryUpdate
	case *sqlparser.Delete:
		return QueryDelete
	default:
		return ""
	}
}

// ---------------------------------------------------------------------------
// DDL and direct-row APIs (used by LAT persistence)
// ---------------------------------------------------------------------------

// CreateTable creates a table and its storage.
func (e *Engine) CreateTable(name string, cols []catalog.Column) error {
	meta, err := e.cat.CreateTable(name, cols)
	if err != nil {
		return err
	}
	e.reg.Register(name, exec.NewTableStore(meta, &e.mvccStats))
	e.invalidatePlans()
	return nil
}

// DropTable removes a table.
func (e *Engine) DropTable(name string) error {
	if err := e.cat.DropTable(name); err != nil {
		return err
	}
	e.reg.Unregister(name)
	e.invalidatePlans()
	return nil
}

// InsertRowDirect appends one row to a table outside any user transaction
// (used by monitoring actions such as LAT persistence, which must not
// interfere with user transactions). The caller supplies values in table
// column order.
func (e *Engine) InsertRowDirect(table string, row []sqltypes.Value) error {
	ts, err := e.reg.Store(table)
	if err != nil {
		return err
	}
	t := e.tm.Begin(true)
	ctx := &exec.Ctx{Txn: t}
	if err := e.locks.Acquire(t.ID, lock.TableResource(table), lock.Exclusive); err != nil {
		e.tm.Rollback(t) //nolint:errcheck
		return err
	}
	if err := exec.InsertRow(ctx, ts, row, e.cat); err != nil {
		e.tm.Rollback(t) //nolint:errcheck
		return err
	}
	return e.tm.Commit(t)
}

// TruncateTableDirect removes all rows of a table outside any user
// transaction (monitoring/reporting maintenance).
func (e *Engine) TruncateTableDirect(table string) error {
	ts, err := e.reg.Store(table)
	if err != nil {
		return err
	}
	t := e.tm.Begin(true)
	if err := e.locks.Acquire(t.ID, lock.TableResource(table), lock.Exclusive); err != nil {
		e.tm.Rollback(t) //nolint:errcheck
		return err
	}
	ts.ResetIndexes()
	ts.Vers.Reset()
	e.cat.AddRows(table, -1<<40) // clamps at zero
	return e.tm.Commit(t)
}

// DeleteRowsDirect removes every row matching pred outside any user
// transaction (used by the LAT checkpointer to garbage-collect superseded
// checkpoint generations). It returns the number of rows deleted.
func (e *Engine) DeleteRowsDirect(table string, pred func(row []sqltypes.Value) bool) (int64, error) {
	ts, err := e.reg.Store(table)
	if err != nil {
		return 0, err
	}
	t := e.tm.Begin(true)
	ctx := &exec.Ctx{Txn: t}
	if err := e.locks.Acquire(t.ID, lock.TableResource(table), lock.Exclusive); err != nil {
		e.tm.Rollback(t) //nolint:errcheck
		return 0, err
	}
	type victim struct {
		rid storage.RID
		row []sqltypes.Value
	}
	var victims []victim
	for cur := ts.Scan(ctx.Current()); ; {
		rid, row, err := cur.Next(ctx)
		if err != nil {
			e.tm.Rollback(t) //nolint:errcheck
			return 0, err
		}
		if row == nil {
			break
		}
		if pred(row) {
			victims = append(victims, victim{rid: rid, row: row})
		}
	}
	for _, v := range victims {
		if err := exec.DeleteRow(ctx, ts, v.rid, v.row, e.cat); err != nil {
			e.tm.Rollback(t) //nolint:errcheck
			return 0, err
		}
	}
	e.pruneAfterWrite(table)
	if err := e.tm.Commit(t); err != nil {
		return 0, err
	}
	return int64(len(victims)), nil
}

// ReadTableDirect returns all committed rows of a table in insertion order
// (used to reload persisted LATs at startup, which relies on that order, and
// by tests). It reads at a fresh snapshot like a SELECT: no locks, and no
// other transaction's uncommitted writes.
func (e *Engine) ReadTableDirect(table string) ([][]sqltypes.Value, error) {
	ts, err := e.reg.Store(table)
	if err != nil {
		return nil, err
	}
	t := e.tm.Begin(true)
	defer e.tm.Commit(t) //nolint:errcheck // read-only
	ctx := &exec.Ctx{Txn: t}
	var out [][]sqltypes.Value
	for cur := ts.Scan(ctx.Snapshot()); ; {
		_, row, err := cur.Next(ctx)
		if err != nil || row == nil {
			return out, err
		}
		out = append(out, row)
	}
}

var errClosed = fmt.Errorf("engine: closed")
