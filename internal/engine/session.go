package engine

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"sqlcm/internal/catalog"
	"sqlcm/internal/exec"
	"sqlcm/internal/expr"
	"sqlcm/internal/lock"
	"sqlcm/internal/plan"
	"sqlcm/internal/sqlparser"
	"sqlcm/internal/sqltypes"
	"sqlcm/internal/txn"
)

// Session is a client connection to the engine. Sessions are not safe for
// concurrent use; open one session per goroutine. The contract is enforced
// cheaply at every entry point (Exec, Prepare, Prepared.Exec, Close): a
// second goroutine entering while a statement is in flight gets
// ErrConcurrentUse instead of a silent race. Network front-ends that hand
// a session to one connection goroutine additionally call PinOwner so the
// lockdep build can assert single-goroutine ownership for the session's
// whole lifetime.
type Session struct {
	ID   int64
	User string
	App  string
	// RemoteAddr is the client address for sessions opened by the network
	// front-end ("" for embedded sessions). It feeds the Remote_Addr probe.
	RemoteAddr string
	// ConnectTime is when the session was opened; the Session_Age probe is
	// measured against it.
	ConnectTime time.Time

	e      *Engine
	tx     *txn.Txn // explicit transaction, nil in autocommit mode
	txInfo *TxnInfo

	// busy serializes session entry points: 0 idle, 1 a statement (or
	// Close) is in flight. A plain atomic rather than a mutex so a
	// violation is reported as an error, never a wait.
	busy   atomic.Int32
	closed atomic.Bool
	owner  ownerGuard // lockdep-build owner-goroutine assertion

	// cur publishes the in-flight statement so CancelCurrent (server
	// drain paths, other goroutines) can cancel it through atomics
	// without violating the single-goroutine contract.
	cur atomic.Pointer[QueryInfo]
}

// NewSession opens a session for the given user and application name (both
// are monitoring probes).
func (e *Engine) NewSession(user, app string) *Session {
	return e.NewRemoteSession(user, app, "")
}

// NewRemoteSession opens a session on behalf of a network client; remote
// is the client address exposed by the Remote_Addr probe so rules can
// target connections.
func (e *Engine) NewRemoteSession(user, app, remote string) *Session {
	return &Session{
		ID:          e.sessionSeq.Add(1),
		User:        user,
		App:         app,
		RemoteAddr:  remote,
		ConnectTime: time.Now(),
		e:           e,
	}
}

// ErrConcurrentUse is returned when a second goroutine enters a session
// while a statement is already in flight on it.
var ErrConcurrentUse = fmt.Errorf("engine: concurrent use of session (sessions are single-goroutine)")

// ErrSessionClosed is returned by entry points on a closed session.
var ErrSessionClosed = fmt.Errorf("engine: session closed")

// enter claims the session for one entry-point call.
func (s *Session) enter() error {
	if s.closed.Load() {
		return ErrSessionClosed
	}
	if !s.busy.CompareAndSwap(0, 1) {
		return ErrConcurrentUse
	}
	if s.closed.Load() { // lost a race with Close
		s.busy.Store(0)
		return ErrSessionClosed
	}
	s.owner.assert()
	return nil
}

// leave releases the session after an entry-point call.
func (s *Session) leave() { s.busy.Store(0) }

// PinOwner pins the session to the calling goroutine: in lockdep builds
// (-tags sqlcmlockdep) any later entry from a different goroutine panics
// with both goroutine ids. In default builds it is free. Connection
// handlers call it once when they take ownership of a session.
func (s *Session) PinOwner() { s.owner.pin() }

// Closed reports whether the session has been closed.
func (s *Session) Closed() bool { return s.closed.Load() }

// Close ends the session: any open explicit transaction is rolled back
// (firing the usual Transaction.Rollback monitoring event) and every later
// entry point returns ErrSessionClosed. Close is idempotent. Closing a
// session while a statement is in flight on another goroutine returns
// ErrConcurrentUse after marking the session closed — the in-flight
// statement completes, but its transaction is left to the lock manager's
// timeout; callers owning the session (the single-goroutine contract)
// never hit this.
func (s *Session) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	if !s.busy.CompareAndSwap(0, 1) {
		return ErrConcurrentUse
	}
	defer s.leave()
	if s.tx != nil {
		return s.rollback()
	}
	return nil
}

// Result is the outcome of one statement.
type Result struct {
	Columns  []string
	Rows     []exec.Row
	Affected int64
}

// InTxn reports whether an explicit transaction is open.
func (s *Session) InTxn() bool { return s.tx != nil }

// Exec parses and executes one SQL statement.
//
//sqlcm:ctx-root embedder convenience API: callers without a deadline start a fresh statement lifetime here
func (s *Session) Exec(sql string, params map[string]sqltypes.Value) (*Result, error) {
	return s.ExecContext(context.Background(), sql, params)
}

// ExecContext parses and executes one SQL statement under a context.
// When ctx ends before the statement does, execution is cancelled at the
// next row-iteration or lock-wait boundary, the statement fails with a
// CancelledError carrying the reason derived from the context's cause
// (see CauseStatementTimeout, CauseDrain), and a Query.Cancelled event
// fires. The context does not bound transaction-control or DDL
// statements (CREATE INDEX waits for the table's lock up to the lock
// timeout).
func (s *Session) ExecContext(ctx context.Context, sql string, params map[string]sqltypes.Value) (*Result, error) {
	if err := s.enter(); err != nil {
		return nil, err
	}
	defer s.leave()
	if s.e.closed.Load() {
		return nil, errClosed
	}
	cp, _, err := s.e.getPlan(sql)
	if err != nil {
		return nil, err
	}
	return s.execPlanned(ctx, cp, sql, params)
}

func (s *Session) execPlanned(ctx context.Context, cp *cachedPlan, sql string, params map[string]sqltypes.Value) (*Result, error) {
	switch stmt := cp.stmt.(type) {
	case *sqlparser.Begin:
		return nil, s.begin()
	case *sqlparser.Commit:
		return nil, s.commit()
	case *sqlparser.Rollback:
		return nil, s.rollback()
	case *sqlparser.CreateTable:
		cols := make([]catalog.Column, len(stmt.Columns))
		for i, c := range stmt.Columns {
			cols[i] = catalog.Column{Name: c.Name, Type: c.Type, PrimaryKey: c.PrimaryKey, NotNull: c.NotNull}
		}
		return &Result{}, s.e.CreateTable(stmt.Name, cols)
	case *sqlparser.CreateIndex:
		return &Result{}, s.createIndex(stmt)
	case *sqlparser.DropTable:
		return &Result{}, s.e.DropTable(stmt.Name)
	case *sqlparser.CreateProcedure:
		return &Result{}, s.e.cat.CreateProcedure(&catalog.Procedure{
			Name:   stmt.Name,
			Params: stmt.Params,
			Body:   stmt.Body,
			Text:   sql,
		})
	case *sqlparser.Exec:
		return s.execProcedure(ctx, stmt, params)
	case *sqlparser.Select, *sqlparser.Insert, *sqlparser.Update, *sqlparser.Delete:
		return s.runQuery(ctx, cp, sql, params)
	default:
		return nil, fmt.Errorf("engine: statement %T not executable at session level", cp.stmt)
	}
}

// createIndex builds the index under the table's exclusive lock, so no
// other transaction has an uncommitted version on the table while the build
// reads it and no writer misses the new tree. The lock is taken by the
// session's open transaction (and then held to its end, like a write) or by
// a short internal one that is invisible to the monitor. The tree is built
// and published before the catalog entry: a lock-free SELECT planned
// meanwhile cannot pick an index without storage, and a failed build (a
// duplicate under UNIQUE) leaves the name free.
func (s *Session) createIndex(stmt *sqlparser.CreateIndex) error {
	t := s.tx
	if t == nil {
		t = s.e.tm.Begin(true)
		defer s.e.tm.Commit(t) //nolint:errcheck
	}
	if err := s.e.locks.Acquire(t.ID, lock.TableResource(stmt.Table), lock.Exclusive); err != nil {
		if t == s.tx {
			s.abortTxn(t, s.txInfo) // deadlock victim: a statement error ends the transaction
		}
		return err
	}
	ix, err := s.e.cat.NewIndex(stmt.Name, stmt.Table, stmt.Columns, stmt.Unique)
	if err != nil {
		return err
	}
	ts, err := s.e.reg.Store(stmt.Table)
	if err != nil {
		return err
	}
	if err := ts.AddIndex(&exec.Ctx{Txn: t}, ix); err != nil {
		return err
	}
	if err := s.e.cat.AddIndex(ix); err != nil {
		return err
	}
	s.e.invalidatePlans()
	return nil
}

// ---------------------------------------------------------------------------
// Transaction control
// ---------------------------------------------------------------------------

func (s *Session) begin() error {
	if s.tx != nil {
		return fmt.Errorf("engine: transaction already open")
	}
	s.tx = s.e.tm.Begin(false)
	s.txInfo = s.newTxnInfo(s.tx, false)
	if h := s.e.hooksRef(); h != nil {
		h.TxnBegin(s.txInfo)
	}
	return nil
}

func (s *Session) newTxnInfo(t *txn.Txn, implicit bool) *TxnInfo {
	return &TxnInfo{
		ID:        t.ID,
		SessionID: s.ID,
		User:      s.User,
		App:       s.App,
		StartTime: t.Start,
		Implicit:  implicit,
	}
}

func (s *Session) endTxn(t *txn.Txn) {
	s.e.queryMu.Lock()
	delete(s.e.byTxn, t.ID)
	s.e.queryMu.Unlock()
}

func (s *Session) commit() error {
	if s.tx == nil {
		return fmt.Errorf("engine: no transaction open")
	}
	t, ti := s.tx, s.txInfo
	s.tx, s.txInfo = nil, nil
	err := s.e.tm.Commit(t)
	dur := time.Since(ti.StartTime)
	if h := s.e.hooksRef(); h != nil && err == nil {
		h.TxnCommit(ti, dur)
	}
	s.endTxn(t)
	return err
}

func (s *Session) rollback() error {
	if s.tx == nil {
		return fmt.Errorf("engine: no transaction open")
	}
	t, ti := s.tx, s.txInfo
	s.tx, s.txInfo = nil, nil
	err := s.e.tm.Rollback(t)
	dur := time.Since(ti.StartTime)
	if h := s.e.hooksRef(); h != nil {
		h.TxnRollback(ti, dur)
	}
	s.endTxn(t)
	return err
}

// abortTxn rolls back after a statement failure. In this engine a statement
// error aborts the whole transaction (documented in DESIGN.md).
func (s *Session) abortTxn(t *txn.Txn, ti *TxnInfo) {
	if s.tx == t {
		s.tx, s.txInfo = nil, nil
	}
	_ = s.e.tm.Rollback(t)
	if h := s.e.hooksRef(); h != nil && ti != nil {
		h.TxnRollback(ti, time.Since(ti.StartTime))
	}
	s.endTxn(t)
}

// ---------------------------------------------------------------------------
// Query execution
// ---------------------------------------------------------------------------

// tablesOf collects the base tables a logical plan touches.
func tablesOf(l plan.Logical) []string {
	seen := map[string]bool{}
	var out []string
	var walk func(n plan.Logical)
	walk = func(n plan.Logical) {
		if n == nil {
			return
		}
		switch t := n.(type) {
		case *plan.LogicalScan:
			if !seen[t.Table.Name] {
				seen[t.Table.Name] = true
				out = append(out, t.Table.Name)
			}
		case *plan.LogicalInsert:
			out = append(out, t.Table.Name)
		case *plan.LogicalUpdate:
			out = append(out, t.Table.Name)
		case *plan.LogicalDelete:
			out = append(out, t.Table.Name)
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(l)
	sort.Strings(out) // deterministic lock order limits deadlocks
	return out
}

func (s *Session) runQuery(ctx context.Context, cp *cachedPlan, sql string, params map[string]sqltypes.Value) (*Result, error) {
	// A context already cancelled at entry fails fast, before a
	// transaction begins or the statement registers — the deterministic
	// floor under the asynchronous watcher below.
	if err := ctx.Err(); err != nil {
		return nil, &CancelledError{Reason: reasonForCause(context.Cause(ctx)), Err: err}
	}
	// Transaction: use the session's explicit transaction or an implicit
	// autocommit one.
	t := s.tx
	ti := s.txInfo
	implicit := false
	if t == nil {
		implicit = true
		t = s.e.tm.Begin(true)
		ti = s.newTxnInfo(t, true)
		if h := s.e.hooksRef(); h != nil {
			h.TxnBegin(ti)
		}
	}

	// The QueryInfo must be complete before registerQuery publishes it:
	// timer-driven rules iterate the active-query registry from alarm
	// goroutines (Example 5's watchdog reads Logical through the signature
	// cache), so every plain field is written before publication and only
	// the atomic counters mutate afterwards.
	instances := cp.instances.Add(1)
	qi := &QueryInfo{
		ID:           s.e.querySeq.Add(1),
		SessionID:    s.ID,
		User:         s.User,
		App:          s.App,
		RemoteAddr:   s.RemoteAddr,
		SessionStart: s.ConnectTime,
		Text:         sql,
		Type:         cp.qtype,
		StartTime:    time.Now(),
		TxnID:        t.ID,
		Txn:          t,
		// Plans come from the cache; signatures are computed by the monitor
		// on first dispatch and cached with the plan (see monitor package).
		Logical:       cp.logical,
		Physical:      cp.physical,
		EstimatedCost: cp.estCost,
		OptimizeTime:  cp.optimize,
		Instances:     instances,
		PlanCacheHit:  instances > 1,
		SnapshotTS:    t.SnapshotTS(),
		SnapshotAt:    t.SnapshotAt(),
		MVCC:          s.e.MVCCStats(),
	}
	s.e.registerQuery(qi)
	s.cur.Store(qi)
	stopWatch := s.watchCancel(ctx, qi, t)
	h := s.e.hooksRef()
	if h != nil {
		h.QueryStart(qi)
		h.QueryCompiled(qi)
	}

	ti.QueryIDs = append(ti.QueryIDs, qi.ID)

	res, err := s.executeBody(cp, qi, t, params)
	dur := time.Since(qi.StartTime)
	if stopWatch != nil {
		stopWatch()
	}
	s.cur.Store(nil)

	if err != nil {
		cancelled := t.Cancelled()
		if h != nil {
			h.QueryAbort(qi, dur, cancelled)
		}
		if reason := qi.CancelReason(); cancelled && reason != CancelNone {
			if h != nil {
				h.QueryCancelled(qi, dur, reason)
			}
			err = &CancelledError{Reason: reason, Err: err}
		}
		s.e.unregisterQuery(qi)
		s.abortTxn(t, ti)
		return nil, err
	}

	if implicit {
		if cerr := s.e.tm.Commit(t); cerr != nil {
			s.e.unregisterQuery(qi)
			s.endTxn(t)
			return nil, cerr
		}
	}
	// Query.Commit fires when the statement completes (paper §5.1); for
	// autocommit statements this is after the transaction commit so that
	// rules observing lock-release events see a consistent order.
	if h != nil {
		h.QueryCommit(qi, dur)
	}
	s.e.unregisterQuery(qi)
	if implicit {
		if h != nil {
			h.TxnCommit(ti, time.Since(ti.StartTime))
		}
		s.endTxn(t)
	}
	return res, nil
}

// executeBody acquires locks and runs the statement. SELECTs read a
// transaction-consistent snapshot through the version chains and never
// touch the lock manager — readers cannot block, be blocked, or deadlock,
// so they produce no Blocker/Blocked events. Writes take exclusive table
// locks (strict 2PL): write-write blocking and deadlock behavior are those
// of a plain locking engine.
func (s *Session) executeBody(cp *cachedPlan, qi *QueryInfo, t *txn.Txn, params map[string]sqltypes.Value) (*Result, error) {
	ctx := &exec.Ctx{Txn: t, Params: params}
	if cp.qtype == QuerySelect {
		defer func() { qi.NoteMaxChain(ctx.MaxChain) }()
	} else {
		for _, table := range tablesOf(cp.logical) {
			if err := s.e.locks.Acquire(t.ID, lock.TableResource(table), lock.Exclusive); err != nil {
				return nil, err
			}
		}
	}
	switch p := cp.physical.(type) {
	case *plan.PhysInsert:
		n, err := exec.ExecInsert(ctx, s.e.reg, p, s.e.cat)
		if err != nil {
			return nil, err
		}
		return &Result{Affected: n}, nil
	case *plan.PhysUpdate:
		n, err := exec.ExecUpdate(ctx, s.e.reg, p)
		if err != nil {
			return nil, err
		}
		s.e.pruneAfterWrite(p.Table.Name)
		return &Result{Affected: n}, nil
	case *plan.PhysDelete:
		n, err := exec.ExecDelete(ctx, s.e.reg, p, s.e.cat)
		if err != nil {
			return nil, err
		}
		s.e.pruneAfterWrite(p.Table.Name)
		return &Result{Affected: n}, nil
	default:
		op, err := exec.Build(cp.physical, s.e.reg)
		if err != nil {
			return nil, err
		}
		rows, err := exec.Run(op, ctx)
		if err != nil {
			return nil, err
		}
		schema := cp.physical.Schema()
		cols := make([]string, len(schema))
		for i, c := range schema {
			cols[i] = c.Name
		}
		return &Result{Columns: cols, Rows: rows, Affected: int64(len(rows))}, nil
	}
}

// NoteShedStatement records a statement that admission control refused
// before execution began: no transaction is opened and no Query.Start
// fires — the only observable trace is one Query.Cancelled event with
// reason shed, so overload shedding is itself monitorable through rules.
// The statement text is still a probe (rules can aggregate what kind of
// work is being refused).
func (s *Session) NoteShedStatement(sql string) {
	h := s.e.hooksRef()
	if h == nil {
		return
	}
	qi := &QueryInfo{
		ID:           s.e.querySeq.Add(1),
		SessionID:    s.ID,
		User:         s.User,
		App:          s.App,
		RemoteAddr:   s.RemoteAddr,
		SessionStart: s.ConnectTime,
		Text:         sql,
		StartTime:    time.Now(),
	}
	qi.MarkCancelled(CancelShed)
	qi.done.Store(true)
	h.QueryCancelled(qi, 0, CancelShed)
}

// ---------------------------------------------------------------------------
// Stored procedures
// ---------------------------------------------------------------------------

func (s *Session) execProcedure(ctx context.Context, call *sqlparser.Exec, callerParams map[string]sqltypes.Value) (*Result, error) {
	proc, err := s.e.cat.Procedure(call.Proc)
	if err != nil {
		return nil, err
	}
	if len(call.Args) != len(proc.Params) {
		return nil, fmt.Errorf("engine: procedure %s expects %d arguments, got %d",
			proc.Name, len(proc.Params), len(call.Args))
	}
	// Evaluate arguments in the caller's parameter scope.
	locals := make(map[string]sqltypes.Value, len(proc.Params))
	for i, argExpr := range call.Args {
		ev, err := exec.Compile(argExpr, nil)
		if err != nil {
			return nil, err
		}
		v, err := ev.Eval(expr.Env{Params: callerParams})
		if err != nil {
			return nil, err
		}
		cv, err := exec.CoerceValue(proc.Params[i].Type, v)
		if err != nil {
			return nil, fmt.Errorf("engine: argument @%s: %w", proc.Params[i].Name, err)
		}
		locals[proc.Params[i].Name] = cv
	}

	// A procedure invocation runs in one transaction: the session's open
	// transaction, or an implicit one spanning the whole call. This gives
	// the Transaction monitored class the per-invocation statement
	// sequence that transaction signatures group on (§4.2).
	implicit := s.tx == nil
	if implicit {
		if err := s.begin(); err != nil {
			return nil, err
		}
	}

	last, err := s.execProcBody(ctx, proc.Body, locals)
	if err != nil {
		if s.tx != nil {
			t, ti := s.tx, s.txInfo
			s.tx, s.txInfo = nil, nil
			s.abortTxn(t, ti)
		}
		return nil, err
	}
	if implicit {
		if err := s.commit(); err != nil {
			return nil, err
		}
	}
	return last, nil
}

// execProcBody runs procedure statements, returning the result of the last
// row-returning statement.
//
//sqlcm:cancellable
func (s *Session) execProcBody(ctx context.Context, body []sqlparser.Statement, locals map[string]sqltypes.Value) (*Result, error) {
	var last *Result
	for _, stmt := range body {
		switch st := stmt.(type) {
		case *sqlparser.If:
			ev, err := exec.Compile(st.Cond, nil)
			if err != nil {
				return nil, err
			}
			ok, err := expr.EvalBool(ev, expr.Env{Params: locals})
			if err != nil {
				return nil, err
			}
			branch := st.Then
			if !ok {
				branch = st.Else
			}
			res, err := s.execProcBody(ctx, branch, locals)
			if err != nil {
				return nil, err
			}
			if res != nil && res.Columns != nil {
				last = res
			}
		case *sqlparser.SetVar:
			ev, err := exec.Compile(st.Expr, nil)
			if err != nil {
				return nil, err
			}
			v, err := ev.Eval(expr.Env{Params: locals})
			if err != nil {
				return nil, err
			}
			locals[st.Name] = v
		case *sqlparser.Exec:
			res, err := s.execProcedure(ctx, st, locals)
			if err != nil {
				return nil, err
			}
			if res != nil && res.Columns != nil {
				last = res
			}
		default:
			// Regular statement: go through the planned path (cached by
			// its canonical text) so it is monitored like any query.
			text := stmt.String()
			cp, _, err := s.e.getPlan(text)
			if err != nil {
				return nil, err
			}
			res, err := s.execPlanned(ctx, cp, text, locals)
			if err != nil {
				return nil, err
			}
			if res != nil && res.Columns != nil {
				last = res
			}
		}
	}
	return last, nil
}
