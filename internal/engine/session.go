package engine

import (
	"fmt"
	"sync/atomic"
	"time"

	"sqlcm/internal/catalog"
	"sqlcm/internal/exec"
	"sqlcm/internal/expr"
	"sqlcm/internal/lock"
	"sqlcm/internal/sqlparser"
	"sqlcm/internal/sqltypes"
	"sqlcm/internal/txn"
)

// Session is a client connection to the engine. Sessions are not safe for
// concurrent use; open one session per goroutine. The contract is enforced
// cheaply at every entry point (Exec, Prepare, Prepared.Exec, Close): a
// second goroutine entering while a statement is in flight gets
// ErrConcurrentUse instead of a silent race. A session may move between
// goroutines between statements.
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

	// cur publishes the session's statement from its start to the end of
	// its transaction, so CancelCurrent (the server's timeout watchdog and
	// drain, other goroutines) can cancel it through atomics without
	// violating the single-goroutine contract, and the engine's statement
	// registry (ActiveQueries, CancelQuery, Blocker resolution) finds it.
	cur atomic.Pointer[QueryInfo]

	// ctx is the execution context every statement of the session reuses.
	ctx exec.Ctx
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
	s := &Session{
		ID:          e.sessionSeq.Add(1),
		User:        user,
		App:         app,
		RemoteAddr:  remote,
		ConnectTime: time.Now(),
		e:           e,
	}
	e.sessMu.Lock()
	e.sessions[s] = struct{}{}
	e.sessMu.Unlock()
	return s
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
	return nil
}

// leave releases the session after an entry-point call.
func (s *Session) leave() { s.busy.Store(0) }

// Closed reports whether the session has been closed.
func (s *Session) Closed() bool { return s.closed.Load() }

// Close ends the session: any open explicit transaction is rolled back
// (firing the usual Transaction.Rollback monitoring event), the session
// leaves the engine's statement registry, and every later entry point
// returns ErrSessionClosed. Close is idempotent; a session never closed
// stays in the registry. Closing a session while a statement is in flight
// on another goroutine returns ErrConcurrentUse after marking the session
// closed — the in-flight statement completes, but its transaction is left
// to the lock manager's timeout; callers owning the session (the
// single-goroutine contract) never hit this.
func (s *Session) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	defer func() {
		s.e.sessMu.Lock()
		delete(s.e.sessions, s)
		s.e.sessMu.Unlock()
	}()
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
	// Columns is shared by every result of the statement's template:
	// read it, never write to it.
	Columns  []string
	Rows     []exec.Row
	Affected int64
}

// InTxn reports whether an explicit transaction is open.
func (s *Session) InTxn() bool { return s.tx != nil }

// Exec parses and executes one SQL statement. A CancelCurrent from
// another goroutine (a statement timeout, a server drain) or an
// Engine.CancelQuery cancels it at the next row-iteration or lock-wait
// boundary: it fails with a CancelledError carrying the reason, and a
// Query.Cancelled event fires. Transaction-control and DDL statements
// are not cancellable (CREATE INDEX waits for the table's lock up to the
// lock timeout).
func (s *Session) Exec(sql string, params map[string]sqltypes.Value) (*Result, error) {
	if err := s.enter(); err != nil {
		return nil, err
	}
	defer s.leave()
	if s.e.closed.Load() {
		return nil, errClosed
	}
	tpl, err := sqlparser.Lex(sql)
	if err != nil {
		return nil, err
	}
	cp, _, err := s.e.getPlan(&tpl)
	if err != nil {
		return nil, err
	}
	return s.execPlanned(cp, sql, params, tpl.Lits)
}

// execPlanned runs one statement: its plan, text, bind parameters and
// normalized literals.
func (s *Session) execPlanned(cp *cachedPlan, sql string, params map[string]sqltypes.Value, lits []sqltypes.Value) (*Result, error) {
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
		return s.execProcedure(stmt, params)
	case *sqlparser.Select, *sqlparser.Insert, *sqlparser.Update, *sqlparser.Delete:
		return s.runQuery(cp, sql, params, lits)
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
			s.endTxn(t, s.txInfo, false) //nolint:errcheck // deadlock victim: a statement error ends the transaction
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
	// Under the exclusive lock every committed version of the table is at
	// or below the last commit, and the build reads the chain heads.
	ix.BuiltAt = s.e.tm.LastCommit()
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

// commit and rollback end the session's explicit transaction.
func (s *Session) commit() error   { return s.endExplicit(true) }
func (s *Session) rollback() error { return s.endExplicit(false) }

func (s *Session) endExplicit(commit bool) error {
	if s.tx == nil {
		return fmt.Errorf("engine: no transaction open")
	}
	return s.endTxn(s.tx, s.txInfo, commit)
}

// endTxn commits or rolls back t, the session's explicit transaction or a
// statement's implicit one, and raises its Transaction event (a commit's
// only if it succeeded). In this engine a statement error rolls back the
// whole transaction (documented in DESIGN.md).
func (s *Session) endTxn(t *txn.Txn, ti *TxnInfo, commit bool) error {
	if s.tx == t {
		s.tx, s.txInfo = nil, nil
	}
	end := s.e.tm.Rollback
	if commit {
		end = s.e.tm.Commit
	}
	err := end(t)
	switch h := s.e.hooksRef(); {
	case h == nil || ti == nil:
	case !commit:
		h.TxnRollback(ti, time.Since(ti.StartTime))
	case err == nil:
		h.TxnCommit(ti, time.Since(ti.StartTime))
	}
	s.unpublish()
	return err
}

// unpublish ends what the session keeps of its transaction's statements.
func (s *Session) unpublish() {
	s.cur.Store(nil)
	s.ctx = exec.Ctx{}
}

// ---------------------------------------------------------------------------
// Query execution
// ---------------------------------------------------------------------------

func (s *Session) runQuery(cp *cachedPlan, sql string, params map[string]sqltypes.Value, lits []sqltypes.Value) (*Result, error) {
	// Transaction: use the session's explicit transaction or an implicit
	// autocommit one. An autocommit statement starts when its transaction
	// does: both share the transaction's one clock reading.
	t := s.tx
	ti := s.txInfo
	implicit := false
	var start time.Time
	if t == nil {
		implicit = true
		t = s.e.tm.Begin(true)
		ti = s.newTxnInfo(t, true)
		start = t.Start
		if h := s.e.hooksRef(); h != nil {
			h.TxnBegin(ti)
		}
	} else {
		start = time.Now()
	}

	// The QueryInfo must be complete before cur publishes it: timer-driven
	// rules iterate the active-query registry from alarm goroutines
	// (Example 5's watchdog reads Logical through the signature cache), so
	// every plain field is written before publication and only the atomic
	// counters mutate afterwards.
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
		StartTime:    start,
		TxnID:        t.ID,
		Txn:          t,
		TxnInfo:      ti,
		// Plans come from the cache; signatures are computed by the monitor
		// on first dispatch and kept in the plan's slot (see monitor package).
		Logical:       cp.logical,
		Physical:      cp.physical,
		EstimatedCost: cp.estCost,
		OptimizeTime:  cp.optimize,
		Instances:     instances,
		PlanCacheHit:  instances > 1,
		Sigs:          &cp.sigs,
		SnapshotTS:    t.SnapshotTS(),
		SnapshotAt:    t.SnapshotAt(),
		MVCC:          s.e.MVCCStats(),
	}
	s.cur.Store(qi)
	h := s.e.hooksRef()
	if h != nil {
		h.QueryStart(qi)
		h.QueryCompiled(qi)
	}

	// The statement's one end reading: Query.Duration, and for an
	// autocommit statement Transaction.Duration too, end when the body
	// returns, before the commit and the hooks.
	res, err := s.executeBody(cp, qi, t, params, lits)
	end := time.Now()
	dur := end.Sub(start)
	qi.phase.Store(phaseEnding)

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
		qi.phase.Store(phaseDone)
		s.endTxn(t, ti, false) //nolint:errcheck // the statement's error is the one to report
		return nil, err
	}

	if implicit {
		if cerr := s.e.tm.Commit(t); cerr != nil {
			qi.phase.Store(phaseDone)
			s.unpublish()
			return nil, cerr
		}
	}
	// Query.Commit fires when the statement completes (paper §5.1); for
	// autocommit statements this is after the transaction commit so that
	// rules observing lock-release events see a consistent order.
	if h != nil {
		h.QueryCommit(qi, dur)
	}
	qi.phase.Store(phaseDone)
	if implicit {
		if h != nil {
			h.TxnCommit(ti, dur)
		}
		s.unpublish()
	}
	return res, nil
}

// executeBody acquires locks and runs the statement. SELECTs read a
// transaction-consistent snapshot through the version chains and never
// touch the lock manager — readers cannot block, be blocked, or deadlock,
// so they produce no Blocker/Blocked events. Writes lock under strict 2PL:
// a row-locked write (exec.Write.RowLocked) takes IX on its table and X on
// each row before reading it, every other write X on the table, so
// write-write blocking and deadlock behavior are those of a plain locking
// engine.
func (s *Session) executeBody(cp *cachedPlan, qi *QueryInfo, t *txn.Txn, params map[string]sqltypes.Value, lits []sqltypes.Value) (*Result, error) {
	ctx := &s.ctx
	*ctx = exec.Ctx{Txn: t, Params: params, Lits: lits}
	if w := cp.write; w != nil {
		ts := w.Store()
		mode := lock.Exclusive
		if w.RowLocked() {
			mode = lock.IntentExclusive
			ctx.Locks, ctx.LockTag = s.e.locks, qi
		}
		if err := s.e.tm.LockTable(t, ts.Meta.Name, mode, qi); err != nil {
			return nil, err
		}
		n, err := w.Exec(ctx)
		if err != nil {
			return nil, err
		}
		if cp.qtype != QueryInsert {
			s.e.pruneAfterWrite(ts)
		}
		return &Result{Affected: n}, nil
	}
	op, _ := cp.trees.Get().(exec.Operator)
	if op == nil {
		var err error
		if op, err = exec.Build(cp.physical, s.e.reg); err != nil {
			return nil, err
		}
	}
	rows, err := exec.Run(op, ctx)
	qi.NoteMaxChain(ctx.MaxChain)
	if err != nil {
		return nil, err // the tree may hold partial state: drop it
	}
	cp.trees.Put(op)
	return &Result{Columns: cp.cols, Rows: rows, Affected: int64(len(rows))}, nil
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
	qi.phase.Store(phaseDone)
	h.QueryCancelled(qi, 0, CancelShed)
}

// ---------------------------------------------------------------------------
// Stored procedures
// ---------------------------------------------------------------------------

func (s *Session) execProcedure(call *sqlparser.Exec, callerParams map[string]sqltypes.Value) (*Result, error) {
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

	last, err := s.execProcBody(proc.Body, locals)
	if err != nil {
		if s.tx != nil {
			s.rollback() //nolint:errcheck // the body's error is the one to report
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
func (s *Session) execProcBody(body []sqlparser.Statement, locals map[string]sqltypes.Value) (*Result, error) {
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
			res, err := s.execProcBody(branch, locals)
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
			res, err := s.execProcedure(st, locals)
			if err != nil {
				return nil, err
			}
			if res != nil && res.Columns != nil {
				last = res
			}
		default:
			// Regular statement: go through the planned path (cached by
			// the template of its canonical text) so it is monitored like
			// any query.
			text := stmt.String()
			tpl, err := sqlparser.Lex(text)
			if err != nil {
				return nil, err
			}
			cp, _, err := s.e.getPlan(&tpl)
			if err != nil {
				return nil, err
			}
			res, err := s.execPlanned(cp, text, locals, tpl.Lits)
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
