// Package engine is the embedded relational database engine SQLCM monitors:
// sessions, SQL execution (parse → plan → lock → execute), stored
// procedures, a plan cache, transactions with strict two-phase table
// locking, and the instrumentation hook points (Hooks) that the monitoring
// framework attaches to.
package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sqlcm/internal/catalog"
	"sqlcm/internal/exec"
	"sqlcm/internal/lock"
	"sqlcm/internal/plan"
	"sqlcm/internal/sqlparser"
	"sqlcm/internal/sqltypes"
	"sqlcm/internal/storage"
	"sqlcm/internal/txn"
)

// Config tunes an Engine.
type Config struct {
	// LockTimeout bounds lock waits. Zero selects the default, 10s; a
	// negative value waits forever (deadlock detection still applies).
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

	// planMu protects the plan cache, keyed by template
	// (sqlparser.Template.Key) and bounded by planCacheCap.
	//sqlcm:lock engine.plan
	//sqlcm:guards planCache
	planMu    sync.Mutex
	planCache map[string]*cachedPlan

	// sessMu protects the set of open sessions, which changes only when a
	// session opens or closes. The statement registry is that set: each
	// session publishes its statement in Session.cur.
	//sqlcm:lock engine.sessions
	//sqlcm:guards sessions
	sessMu   sync.Mutex
	sessions map[*Session]struct{}

	querySeq   atomic.Int64
	sessionSeq atomic.Int64
	closed     atomic.Bool

	// mvccStats aggregates version-store counters across all tables (the
	// Versions_Pruned / Versions_Retained probes).
	mvccStats storage.VersionStats

	// planGen counts plan-cache invalidations (DDL); it moves under planMu.
	// Prepared statements snapshot it and re-plan when it moves, so a handle
	// never executes a plan compiled against dropped or re-indexed schema.
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
	sigs      SigSlot
	// The rest of what is decided once per template (DESIGN.md §5.4). A
	// SELECT has its result column names and a pool of built operator
	// trees: Build runs only when the pool is empty, and only a tree whose
	// run succeeded goes back. A write has its compiled form, which names
	// the one table it locks.
	cols  []string
	trees sync.Pool
	write *exec.Write
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
		sessions:  make(map[*Session]struct{}),
	}
	locks.SetNotifier(&lockBridge{e: e})
	return e, nil
}

// pruneAfterWrite is the version-garbage trigger: a writer calls it on the
// table it wrote, still holding its write locks — X on the table, or IX on
// it and X on the rows it changed — and runs the pass itself when the
// table's version store says one is due. Under IX two writers of one table
// may prune at once: each garbage record goes to one pass under the store's
// latch, and index deletes latch their tree. Every version a pass may cut
// is committed at or below the watermark, read here after the locks:
// another writer's uncommitted head sits above it on its chain (its row's
// lock kept this writer off that chain), a commit running concurrently
// stamps a timestamp above the published last commit, which is at or
// above the watermark, and the writer's own uncommitted versions sit above
// everything the pass cuts, so rolling it back afterwards still finds
// them. A whole chain dies only under a committed tombstone at or below
// the watermark, and a row-locked writer cannot be about to write such a
// row: it locked the row before reading it, so it read the tombstone and
// skipped the row. Readers only ever follow atomics.
func (e *Engine) pruneAfterWrite(ts *exec.TableStore) {
	if wm, due := ts.Vers.PruneDue(e.tm.Watermark); due {
		ts.PruneVersions(wm)
	}
}

// PruneVersionsNow sweeps every table's garbage set at the current
// watermark (oldest active snapshot), whatever the write-path trigger
// thinks is due: shutdown, tests and measurements call it to reclaim what
// tables nobody writes any more were left holding. Each table is pruned
// under its X lock inside a short internal transaction, so the sweep
// serializes against writers, row-locked ones included, exactly like a
// table-locked statement.
func (e *Engine) PruneVersionsNow() {
	for _, name := range e.reg.Names() {
		ts, err := e.reg.Store(name)
		if err != nil {
			continue
		}
		t, err := e.beginLocked(name)
		if err != nil {
			continue // contended or cancelled: the next pass retries
		}
		// Watermark is read after the X lock is held: no writer on this
		// table is in its commit window, and any snapshot taken later
		// observes at least the newest committed timestamp.
		ts.PruneVersions(e.tm.Watermark())
		e.tm.Commit(t) //nolint:errcheck
	}
}

// beginLocked begins an internal transaction that holds table's X lock.
func (e *Engine) beginLocked(table string) (*txn.Txn, error) {
	t := e.tm.Begin(true)
	if err := e.locks.Acquire(t.ID, lock.TableResource(table), lock.Exclusive); err != nil {
		e.tm.Rollback(t) //nolint:errcheck
		return nil, err
	}
	return t, nil
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
// Statement registry: the open sessions and the statement each publishes
// ---------------------------------------------------------------------------

// queryForTxn resolves a transaction to its currently executing (or most
// recent) statement. A session keeps its statement published until the
// statement's transaction ends: a transaction that holds locks after its
// statement completed must still resolve to a query when its eventual lock
// release unblocks waiters (the paper's Blocker object refers to the
// blocking statement).
func (e *Engine) queryForTxn(id lock.TxnID) *QueryInfo {
	e.sessMu.Lock()
	defer e.sessMu.Unlock()
	for s := range e.sessions {
		if q := s.cur.Load(); q != nil && q.TxnID == id {
			return q
		}
	}
	return nil
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
	infos := e.ActiveQueryInfos()
	out := make([]QuerySnapshot, 0, len(infos))
	for _, q := range infos {
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
	e.sessMu.Lock()
	defer e.sessMu.Unlock()
	out := make([]*QueryInfo, 0, len(e.sessions))
	for s := range e.sessions {
		if q := s.cur.Load(); q != nil && !q.Done() {
			out = append(out, q)
		}
	}
	return out
}

// CancelQuery cancels the statement with the given id (and its transaction
// lock waits). It reports whether the query was found. The cancellation
// is attributed as an admin cancel (rules' CANCEL action, operators).
func (e *Engine) CancelQuery(id int64) bool {
	for _, q := range e.ActiveQueryInfos() {
		if q.ID == id {
			q.MarkCancelled(CancelAdmin)
			return e.tm.Cancel(q.TxnID)
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Lock notifications → query-level blocking events
// ---------------------------------------------------------------------------

type lockBridge struct{ e *Engine }

func (b *lockBridge) Blocked(waiter lock.TxnID, res lock.Resource, holders []lock.TxnID) {
	h := b.e.hooksRef()
	wq := b.e.queryForTxn(waiter)
	if wq == nil || h == nil {
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
		// A statement waiter queued with its query: by now the grant may
		// have let it finish and end its transaction.
		wq, _ := w.Tag.(*QueryInfo)
		if wq == nil {
			wq = b.e.queryForTxn(w.Txn)
		}
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

// planCacheCap bounds the plan cache in templates. Real workloads have a
// handful (Ettu, PAPERS.md); the bound is for text built to defeat that.
const planCacheCap = 4096

// getPlan returns the plan of tpl's template, compiling it on a miss, and
// the plan generation the plan was compiled under. DDL, EXEC, IF and SET
// are never cached.
func (e *Engine) getPlan(tpl *sqlparser.Template) (*cachedPlan, int64, error) {
	e.planMu.Lock()
	gen := e.planGen.Load()
	cp, ok := e.planCache[string(tpl.Key)]
	e.planMu.Unlock()
	if ok {
		return cp, gen, nil
	}
	stmt, err := tpl.Parse()
	if err != nil {
		return nil, 0, err
	}
	switch stmt.(type) {
	case *sqlparser.Select, *sqlparser.Insert, *sqlparser.Update, *sqlparser.Delete:
	case *sqlparser.Begin, *sqlparser.Commit, *sqlparser.Rollback:
		return e.storePlan(tpl.Key, &cachedPlan{stmt: stmt}, gen), gen, nil
	default:
		return &cachedPlan{stmt: stmt}, gen, nil // not cacheable, not a query
	}
	cp, err = e.compile(stmt)
	if err != nil {
		return nil, 0, err
	}
	return e.storePlan(tpl.Key, cp, gen), gen, nil
}

// compile plans one query.
func (e *Engine) compile(stmt sqlparser.Statement) (*cachedPlan, error) {
	start := time.Now()
	l, err := plan.BuildLogical(stmt, e.cat)
	if err != nil {
		return nil, err
	}
	p, err := plan.Optimize(l, e.cat)
	if err != nil {
		return nil, err
	}
	cp := &cachedPlan{
		stmt:     stmt,
		logical:  l,
		physical: p,
		estCost:  p.EstCost(),
		qtype:    queryTypeOf(stmt),
		optimize: time.Since(start),
	}
	if cp.qtype == QuerySelect {
		schema := p.Schema()
		cp.cols = make([]string, len(schema))
		for i, c := range schema {
			cp.cols[i] = c.Name
		}
	} else if cp.write, err = exec.CompileWrite(p, e.reg); err != nil {
		return nil, err
	}
	return cp, nil
}

// storePlan caches cp, compiled under generation gen, and returns the plan
// every session runs for key. Another session may have compiled the same
// template meanwhile: the first plan stored wins, so its signatures are
// computed once. A plan compiled before DDL moved the generation is not
// stored: it may be bound to a dropped table.
func (e *Engine) storePlan(key []byte, cp *cachedPlan, gen int64) *cachedPlan {
	e.planMu.Lock()
	defer e.planMu.Unlock()
	if e.planGen.Load() != gen {
		return cp
	}
	if winner, ok := e.planCache[string(key)]; ok {
		return winner
	}
	if len(e.planCache) >= planCacheCap {
		for k := range e.planCache { // full: evict an arbitrary template
			delete(e.planCache, k)
			break
		}
	}
	e.planCache[string(key)] = cp
	return cp
}

// invalidatePlans clears the plan cache (after DDL). The generation moves
// under planMu, so storePlan never caches a plan compiled before it.
func (e *Engine) invalidatePlans() {
	e.planMu.Lock()
	e.planCache = make(map[string]*cachedPlan)
	e.planGen.Add(1)
	e.planMu.Unlock()
}

// PlanCacheSize returns the number of cached plans (templates).
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
	e.reg.Register(name, exec.NewTableStore(meta, e.cat, &e.mvccStats, e.tm.LastCommit))
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
	t, err := e.beginLocked(table)
	if err != nil {
		return err
	}
	if err := exec.InsertRow(&exec.Ctx{Txn: t}, ts, row); err != nil {
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
	t, err := e.beginLocked(table)
	if err != nil {
		return err
	}
	ts.ResetIndexes()
	ts.Vers.Reset()
	e.cat.AddRows(table, -1<<40) // clamps at zero
	return e.tm.Commit(t)
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
