package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"sqlcm/internal/sqlparser"
	"sqlcm/internal/sqltypes"
	"sqlcm/internal/testutil"
)

func TestSessionCloseIdempotentAndRejectsUse(t *testing.T) {
	e := newTestEngine(t)
	defer testutil.CheckLeaks(t)()
	s := e.NewSession("alice", "app")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY)")
	if s.Closed() {
		t.Fatal("fresh session reports closed")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if !s.Closed() {
		t.Fatal("session not closed")
	}
	if _, err := s.Exec("SELECT * FROM t", nil); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("exec after close: %v", err)
	}
	if _, err := s.Prepare("SELECT * FROM t"); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("prepare after close: %v", err)
	}
}

func TestSessionCloseRollsBackOpenTxn(t *testing.T) {
	e := newTestEngine(t)
	defer testutil.CheckLeaks(t)()
	s := e.NewSession("alice", "app")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY)")
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO t VALUES (1)")
	if !s.InTxn() {
		t.Fatal("expected open transaction")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close with open txn: %v", err)
	}
	s2 := e.NewSession("bob", "app")
	res := mustExec(t, s2, "SELECT COUNT(*) FROM t")
	if n := res.Rows[0][0].Int(); n != 0 {
		t.Fatalf("uncommitted insert survived close: %d rows", n)
	}
}

func TestPreparedStatementExecAndParams(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession("alice", "app")
	seedAccounts(t, s)
	p, err := s.Prepare("SELECT balance FROM accounts WHERE id = @id")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.ParamNames(); len(got) != 1 || got[0] != "id" {
		t.Fatalf("param names: %v", got)
	}
	for i := 1; i <= 3; i++ {
		res, err := p.Exec(map[string]sqltypes.Value{"id": sqltypes.NewInt(int64(i))})
		if err != nil {
			t.Fatalf("exec %d: %v", i, err)
		}
		if want := float64(i * 100); res.Rows[0][0].Float() != want {
			t.Fatalf("id %d: got %v want %v", i, res.Rows[0][0], want)
		}
	}
}

func TestPreparedReplanAfterDDL(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession("alice", "app")
	seedAccounts(t, s)
	p, err := s.Prepare("SELECT balance FROM accounts WHERE owner = @o")
	if err != nil {
		t.Fatal(err)
	}
	gen0 := p.gen
	// DDL invalidates the engine plan cache; the handle must re-plan from
	// its text instead of executing the stale plan.
	mustExec(t, s, "CREATE INDEX idx_owner ON accounts (owner)")
	if e.planGen.Load() == gen0 {
		t.Fatal("CREATE INDEX did not bump the plan generation")
	}
	res, err := p.Exec(map[string]sqltypes.Value{"o": sqltypes.NewString("user1")})
	if err != nil {
		t.Fatalf("exec after DDL: %v", err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("rows after re-plan: %d", len(res.Rows))
	}
	if p.gen == gen0 {
		t.Fatal("handle did not record the new plan generation")
	}
}

func TestScanParamNames(t *testing.T) {
	cases := []struct {
		sql  string
		want []string
	}{
		{"SELECT * FROM t WHERE a = @x AND b = @y", []string{"x", "y"}},
		{"UPDATE t SET a = @v WHERE id = @id AND b = @v", []string{"v", "id"}},
		{"SELECT '@not_a_param' FROM t WHERE a = @real", []string{"real"}},
		{"SELECT 1", nil},
		{"SELECT @p1, @P2, @_u3", []string{"p1", "P2", "_u3"}},
		// Comments are skipped, as the parser skips them.
		{"SELECT val FROM items WHERE id = @id -- was @old", []string{"id"}},
		{"SELECT /* @a, */ @b FROM t", []string{"b"}},
		// Non-ASCII letters continue a name, as they continue an identifier.
		{"SELECT * FROM t WHERE größe = @größe AND b = @ß2", []string{"größe", "ß2"}},
	}
	for _, c := range cases {
		tpl, err := sqlparser.Lex(c.sql)
		if err != nil {
			t.Fatalf("%q: %v", c.sql, err)
		}
		got := tpl.Params
		if len(got) != len(c.want) {
			t.Fatalf("%q: got %v want %v", c.sql, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("%q: got %v want %v", c.sql, got, c.want)
			}
		}
	}
}

// blockedHooks signals each lock wait that begins.
type blockedHooks struct {
	NopHooks
	blocked chan struct{}
}

func (h *blockedHooks) QueryBlocked(BlockEvent) {
	select {
	case h.blocked <- struct{}{}:
	default:
	}
}

// TestCancelCurrentCancelsLockWait: a CancelCurrent from another
// goroutine — how the server's watchdog keeps a statement timeout —
// interrupts a statement parked on a lock wait, surfaces as a
// CancelledError with reason timeout, and leaves the session and every
// goroutine cleanly unwound.
func TestCancelCurrentCancelsLockWait(t *testing.T) {
	e := newTestEngine(t)
	defer testutil.CheckLeaks(t)()
	setup := e.NewSession("dba", "setup")
	mustExec(t, setup, "CREATE TABLE t (id INT PRIMARY KEY, v FLOAT)")
	mustExec(t, setup, "INSERT INTO t VALUES (1, 1.0)")

	holder := e.NewSession("holder", "app")
	mustExec(t, holder, "BEGIN")
	mustExec(t, holder, "UPDATE t SET v = 2.0 WHERE id = 1")

	h := &blockedHooks{blocked: make(chan struct{}, 1)}
	e.SetHooks(h)
	victim := e.NewSession("victim", "app")
	done := make(chan error, 1)
	go func() {
		_, err := victim.Exec("UPDATE t SET v = 3.0 WHERE id = 1", nil)
		done <- err
	}()
	select {
	case <-h.blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("victim statement never reached the lock wait")
	}
	if !victim.CancelCurrent(CancelTimeout) {
		t.Fatal("CancelCurrent found no statement in flight")
	}
	var ce *CancelledError
	if err := <-done; !errors.As(err, &ce) || ce.Reason != CancelTimeout {
		t.Fatalf("blocked exec: got %v, want CancelledError with reason timeout", err)
	}
	e.SetHooks(nil)
	mustExec(t, holder, "COMMIT")
	// The session stays usable and the cancelled write never applied.
	res := mustExec(t, victim, "SELECT v FROM t WHERE id = 1")
	if res.Rows[0][0].Float() != 2.0 {
		t.Fatalf("cancelled update applied anyway: %v", res.Rows[0][0])
	}
}

// cancelOnStart cancels every statement of sess as it starts.
type cancelOnStart struct {
	NopHooks
	sess *Session
}

func (h *cancelOnStart) QueryStart(*QueryInfo) { h.sess.CancelCurrent(CancelTimeout) }

// TestDMLDeadlineLandsAtRowBoundary: a timeout that lands once a
// multi-row INSERT, UPDATE or DELETE has started cancels the statement
// at a row boundary and leaves the table as it was. The cancel comes from
// a QueryStart hook: the statement has registered and holds no lock yet,
// so only the executor's own polls can catch it (the INSERT's per-row
// poll, the target cursor's for UPDATE and DELETE).
func TestDMLDeadlineLandsAtRowBoundary(t *testing.T) {
	var ins strings.Builder
	ins.WriteString("INSERT INTO big (id, v) VALUES ")
	for i := 500; i < 1000; i++ {
		if i > 500 {
			ins.WriteString(", ")
		}
		fmt.Fprintf(&ins, "(%d, %d.5)", i, i)
	}
	for _, tc := range []struct{ name, sql string }{
		{"INSERT", ins.String()},
		{"UPDATE", "UPDATE big SET v = v + 1"},
		{"DELETE", "DELETE FROM big"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newTestEngine(t)
			defer testutil.CheckLeaks(t)()
			s := e.NewSession("alice", "app")
			mustExec(t, s, "CREATE TABLE big (id INT PRIMARY KEY, v FLOAT)")
			mustExec(t, s, "BEGIN")
			for i := 0; i < 500; i++ {
				mustExec(t, s, fmt.Sprintf("INSERT INTO big VALUES (%d, %d.5)", i, i))
			}
			mustExec(t, s, "COMMIT")
			e.SetHooks(&cancelOnStart{sess: s})
			var ce *CancelledError
			if _, err := s.Exec(tc.sql, nil); !errors.As(err, &ce) || ce.Reason != CancelTimeout {
				t.Fatalf("%s cancelled at start: got %v, want CancelledError with reason timeout", tc.name, err)
			}
			e.SetHooks(nil)
			res := mustExec(t, s, "SELECT COUNT(*), SUM(v) FROM big")
			if n, sum := res.Rows[0][0].Int(), res.Rows[0][1].Float(); n != 500 || sum != 125000 {
				t.Fatalf("cancelled %s changed the table: %d rows, sum %g; want 500 rows, sum 125000", tc.name, n, sum)
			}
		})
	}
}

// TestConcurrentExecRejected pins the single-goroutine contract: a second
// goroutine entering a session while a statement is in flight gets
// ErrConcurrentUse, never a silent race. The in-flight statement is parked
// deterministically on a table lock held by another session.
func TestConcurrentExecRejected(t *testing.T) {
	e := newTestEngine(t)
	setup := e.NewSession("dba", "setup")
	mustExec(t, setup, "CREATE TABLE t (id INT PRIMARY KEY, v FLOAT)")
	mustExec(t, setup, "INSERT INTO t VALUES (1, 1.0)")

	holder := e.NewSession("holder", "app")
	mustExec(t, holder, "BEGIN")
	mustExec(t, holder, "UPDATE t SET v = 2.0 WHERE id = 1") // exclusive table lock

	victim := e.NewSession("victim", "app")
	done := make(chan error, 1)
	go func() {
		// Blocks on holder's lock until the commit below releases it.
		_, err := victim.Exec("UPDATE t SET v = 3.0 WHERE id = 1", nil)
		done <- err
	}()

	// Wait until the victim's statement is registered (it registers before
	// acquiring locks, and enter() precedes registration).
	deadline := time.Now().Add(5 * time.Second)
	for {
		var blocked bool
		for _, q := range e.ActiveQueries() {
			if q.User == "victim" {
				blocked = true
			}
		}
		if blocked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim statement never started")
		}
		time.Sleep(time.Millisecond)
	}

	if _, err := victim.Exec("SELECT * FROM t", nil); !errors.Is(err, ErrConcurrentUse) {
		t.Fatalf("concurrent exec: got %v, want ErrConcurrentUse", err)
	}

	mustExec(t, holder, "COMMIT")
	if err := <-done; err != nil {
		t.Fatalf("victim exec after lock release: %v", err)
	}
	// The session is whole again: the owner goroutine can keep using it.
	mustExec(t, victim, "SELECT * FROM t")
}

// TestSessionReusedSequentiallyAcrossGoroutines: the single-goroutine
// contract is per statement, not per session. A session may move to
// another goroutine between statements.
func TestSessionReusedSequentiallyAcrossGoroutines(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession("alice", "app")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY)")
	done := make(chan error, 1)
	go func() {
		_, err := s.Exec("SELECT * FROM t", nil)
		done <- err
	}()
	if err := <-done; err != nil {
		t.Fatalf("sequential cross-goroutine exec: %v", err)
	}
	mustExec(t, s, "SELECT * FROM t")
}
