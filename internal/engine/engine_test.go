package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"sqlcm/internal/sqltypes"
)

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := Open(Config{LockTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func mustExec(t *testing.T, s *Session, sql string) *Result {
	t.Helper()
	res, err := s.Exec(sql, nil)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return res
}

func seedAccounts(t *testing.T, s *Session) {
	t.Helper()
	mustExec(t, s, "CREATE TABLE accounts (id INT PRIMARY KEY, owner VARCHAR NOT NULL, balance FLOAT)")
	for i := 1; i <= 50; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO accounts VALUES (%d, 'user%d', %d.0)", i, i%5, i*100))
	}
}

func TestEndToEndSQL(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession("alice", "app1")
	seedAccounts(t, s)
	res := mustExec(t, s, "SELECT COUNT(*) FROM accounts")
	if res.Rows[0][0].Int() != 50 {
		t.Fatalf("count: %v", res.Rows[0][0])
	}
	res = mustExec(t, s, "SELECT owner, SUM(balance) AS total FROM accounts GROUP BY owner ORDER BY total DESC LIMIT 2")
	if len(res.Rows) != 2 || res.Columns[1] != "total" {
		t.Fatalf("res: %+v", res)
	}
	res = mustExec(t, s, "UPDATE accounts SET balance = balance + 10 WHERE id = 1")
	if res.Affected != 1 {
		t.Fatalf("affected: %d", res.Affected)
	}
}

func TestExplicitTransactionCommitAndRollback(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession("alice", "app")
	seedAccounts(t, s)

	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE accounts SET balance = 0 WHERE id = 1")
	mustExec(t, s, "COMMIT")
	res := mustExec(t, s, "SELECT balance FROM accounts WHERE id = 1")
	if res.Rows[0][0].Float() != 0 {
		t.Fatalf("commit lost: %v", res.Rows[0][0])
	}

	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE accounts SET balance = 999 WHERE id = 2")
	mustExec(t, s, "ROLLBACK")
	res = mustExec(t, s, "SELECT balance FROM accounts WHERE id = 2")
	if res.Rows[0][0].Float() != 200 {
		t.Fatalf("rollback lost: %v", res.Rows[0][0])
	}
}

func TestStatementErrorAbortsTransaction(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession("alice", "app")
	seedAccounts(t, s)
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE accounts SET balance = 1 WHERE id = 3")
	if _, err := s.Exec("INSERT INTO accounts VALUES (3, 'dup', 0.0)", nil); err == nil {
		t.Fatal("duplicate pk should fail")
	}
	if s.InTxn() {
		t.Fatal("failed statement must abort the transaction")
	}
	res := mustExec(t, s, "SELECT balance FROM accounts WHERE id = 3")
	if res.Rows[0][0].Float() != 300 {
		t.Fatalf("txn changes not rolled back: %v", res.Rows[0][0])
	}
}

func TestStoredProcedureWithBranches(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession("alice", "app")
	seedAccounts(t, s)
	mustExec(t, s, `CREATE PROCEDURE get_balance (@id INT, @detailed BOOL) AS BEGIN
		IF @detailed = TRUE THEN
			SELECT id, owner, balance FROM accounts WHERE id = @id;
		ELSE
			SELECT balance FROM accounts WHERE id = @id;
		END IF;
	END`)
	res, err := s.Exec("EXEC get_balance 7, TRUE", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 3 || res.Rows[0][1].Str() != "user2" {
		t.Fatalf("detailed branch: %+v", res)
	}
	res, err = s.Exec("CALL get_balance(7, FALSE)", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 1 || res.Rows[0][0].Float() != 700 {
		t.Fatalf("simple branch: %+v", res)
	}
}

func TestProcedureSetVarAndNestedExec(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession("alice", "app")
	seedAccounts(t, s)
	mustExec(t, s, `CREATE PROCEDURE inner_p (@x INT) AS BEGIN
		SELECT balance FROM accounts WHERE id = @x;
	END`)
	mustExec(t, s, `CREATE PROCEDURE outer_p (@base INT) AS BEGIN
		SET @x = @base + 1;
		EXEC inner_p @x;
	END`)
	res, err := s.Exec("EXEC outer_p 9", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Float() != 1000 {
		t.Fatalf("nested exec: %v", res.Rows[0][0])
	}
}

func TestPlanCacheReuse(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession("alice", "app")
	seedAccounts(t, s)
	if e.PlanCacheSize() == 0 {
		t.Fatal("plan cache empty after seeding")
	}
	before := e.PlanCacheSize()
	params := map[string]sqltypes.Value{"id": sqltypes.NewInt(1)}
	for i := 0; i < 10; i++ {
		if _, err := s.Exec("SELECT balance FROM accounts WHERE id = @id", params); err != nil {
			t.Fatal(err)
		}
	}
	if e.PlanCacheSize() != before+1 {
		t.Fatalf("parameterized query should add exactly one cache entry (%d -> %d)", before, e.PlanCacheSize())
	}
	// DDL invalidates.
	mustExec(t, s, "CREATE TABLE other (id INT PRIMARY KEY)")
	if e.PlanCacheSize() != 0 {
		t.Fatalf("cache not invalidated: %d", e.PlanCacheSize())
	}
}

func TestParamsFlowThroughSession(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession("alice", "app")
	seedAccounts(t, s)
	res, err := s.Exec("SELECT id FROM accounts WHERE id = @k",
		map[string]sqltypes.Value{"k": sqltypes.NewInt(11)})
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("param select: %v %v", res, err)
	}
}

type recHooks struct {
	NopHooks
	mu        sync.Mutex
	starts    []string
	commits   []string
	compiled  int
	aborts    int
	cancelled int
	txBegins  int
	txCommits int
	blocked   int
	released  int
}

func (h *recHooks) QueryStart(q *QueryInfo) {
	h.mu.Lock()
	h.starts = append(h.starts, q.Text)
	h.mu.Unlock()
}

func (h *recHooks) QueryCompiled(q *QueryInfo) {
	h.mu.Lock()
	h.compiled++
	h.mu.Unlock()
}

func (h *recHooks) QueryCommit(q *QueryInfo, d time.Duration) {
	h.mu.Lock()
	h.commits = append(h.commits, q.Text)
	h.mu.Unlock()
}

func (h *recHooks) QueryAbort(q *QueryInfo, d time.Duration, cancelled bool) {
	h.mu.Lock()
	h.aborts++
	if cancelled {
		h.cancelled++
	}
	h.mu.Unlock()
}

func (h *recHooks) QueryBlocked(ev BlockEvent) {
	h.mu.Lock()
	h.blocked++
	h.mu.Unlock()
}

func (h *recHooks) BlockReleased(holder *QueryInfo, ws []BlockEvent) {
	h.mu.Lock()
	h.released += len(ws)
	h.mu.Unlock()
}

func (h *recHooks) TxnBegin(t *TxnInfo) {
	h.mu.Lock()
	h.txBegins++
	h.mu.Unlock()
}

func (h *recHooks) TxnCommit(t *TxnInfo, d time.Duration) {
	h.mu.Lock()
	h.txCommits++
	h.mu.Unlock()
}

func TestHooksFireInOrder(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession("alice", "app")
	seedAccounts(t, s)
	h := &recHooks{}
	e.SetHooks(h)
	mustExec(t, s, "SELECT COUNT(*) FROM accounts")
	mustExec(t, s, "UPDATE accounts SET balance = 1 WHERE id = 1")
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.starts) != 2 || len(h.commits) != 2 || h.compiled != 2 {
		t.Fatalf("events: starts=%d commits=%d compiled=%d", len(h.starts), len(h.commits), h.compiled)
	}
	if h.txBegins != 2 || h.txCommits != 2 {
		t.Fatalf("txn events: %d/%d", h.txBegins, h.txCommits)
	}
	if h.aborts != 0 {
		t.Fatalf("aborts: %d", h.aborts)
	}
}

func TestBlockingEventsAcrossSessions(t *testing.T) {
	e := newTestEngine(t)
	s1 := e.NewSession("writer", "app")
	seedAccounts(t, s1)
	h := &recHooks{}
	e.SetHooks(h)

	mustExec(t, s1, "BEGIN")
	mustExec(t, s1, "UPDATE accounts SET balance = 0 WHERE id = 1")

	// MVCC reads never block, so blocking is exercised writer-vs-writer.
	s2 := e.NewSession("waiter", "app")
	done := make(chan error, 1)
	go func() {
		_, err := s2.Exec("UPDATE accounts SET balance = 1 WHERE id = 2", nil)
		done <- err
	}()
	time.Sleep(100 * time.Millisecond)
	h.mu.Lock()
	blocked := h.blocked
	h.mu.Unlock()
	if blocked != 1 {
		t.Fatalf("blocked events: %d", blocked)
	}
	mustExec(t, s1, "COMMIT")
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.released != 1 {
		t.Fatalf("released events: %d", h.released)
	}
}

func TestCancelQueryMidExecution(t *testing.T) {
	e := newTestEngine(t)
	s1 := e.NewSession("writer", "app")
	seedAccounts(t, s1)
	h := &recHooks{}
	e.SetHooks(h)

	// Hold an X lock so the victim blocks, then cancel it.
	mustExec(t, s1, "BEGIN")
	mustExec(t, s1, "UPDATE accounts SET balance = 0 WHERE id = 1")

	s2 := e.NewSession("victim", "app")
	done := make(chan error, 1)
	go func() {
		_, err := s2.Exec("UPDATE accounts SET balance = 1 WHERE id = 2", nil)
		done <- err
	}()
	time.Sleep(100 * time.Millisecond)
	var victim QuerySnapshot
	for _, q := range e.ActiveQueries() {
		if q.User == "victim" {
			victim = q
		}
	}
	if victim.ID == 0 {
		t.Fatal("victim query not visible in ActiveQueries")
	}
	if !e.CancelQuery(victim.ID) {
		t.Fatal("CancelQuery failed")
	}
	err := <-done
	if err == nil {
		t.Fatal("cancelled query should fail")
	}
	mustExec(t, s1, "COMMIT")
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.cancelled != 1 {
		t.Fatalf("cancelled aborts: %d (aborts %d)", h.cancelled, h.aborts)
	}
}

func TestActiveQueriesSnapshotDuringExecution(t *testing.T) {
	e := newTestEngine(t)
	s1 := e.NewSession("writer", "app")
	seedAccounts(t, s1)
	mustExec(t, s1, "BEGIN")
	mustExec(t, s1, "UPDATE accounts SET balance = 0 WHERE id = 1")

	s2 := e.NewSession("waiter", "rpt")
	//sqlcm:owned-by the writer's rollback below releases the lock and ends the query
	go s2.Exec("UPDATE accounts SET balance = 1 WHERE id = 2", nil) //nolint:errcheck
	time.Sleep(100 * time.Millisecond)
	snaps := e.ActiveQueries()
	if len(snaps) != 1 {
		t.Fatalf("active: %d", len(snaps))
	}
	if snaps[0].User != "waiter" || snaps[0].Elapsed <= 0 {
		t.Fatalf("snapshot: %+v", snaps[0])
	}
	mustExec(t, s1, "COMMIT")
	time.Sleep(100 * time.Millisecond)
	if got := e.ActiveQueries(); len(got) != 0 {
		t.Fatalf("still active: %+v", got)
	}
}

func TestConcurrentSessionsStress(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession("seed", "app")
	seedAccounts(t, s)
	const goroutines = 8
	const iters = 100
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := e.NewSession(fmt.Sprintf("u%d", g), "stress")
			for i := 0; i < iters; i++ {
				id := (g*iters+i)%50 + 1
				var err error
				if i%10 == 0 {
					_, err = sess.Exec(fmt.Sprintf("UPDATE accounts SET balance = balance + 1 WHERE id = %d", id), nil)
				} else {
					_, err = sess.Exec(fmt.Sprintf("SELECT balance FROM accounts WHERE id = %d", id), nil)
				}
				if err != nil && !strings.Contains(err.Error(), "deadlock") {
					errCh <- fmt.Errorf("g%d i%d: %w", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if e.Txns().Active() != 0 {
		t.Fatalf("leaked transactions: %d", e.Txns().Active())
	}
}

func TestInsertRowDirectAndReadTableDirect(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession("a", "b")
	mustExec(t, s, "CREATE TABLE log (id INT PRIMARY KEY, msg VARCHAR)")
	if err := e.InsertRowDirect("log", []sqltypes.Value{sqltypes.NewInt(1), sqltypes.NewString("hello")}); err != nil {
		t.Fatal(err)
	}
	rows, err := e.ReadTableDirect("log")
	if err != nil || len(rows) != 1 || rows[0][1].Str() != "hello" {
		t.Fatalf("read direct: %v %v", rows, err)
	}
}

// TestReadTableDirectSeesOnlyCommitted: ReadTableDirect reads like a SELECT
// at a fresh snapshot — another session's open transaction (an UPDATE, a
// DELETE and an INSERT, all uncommitted) must not show, and must not block
// it either.
func TestReadTableDirectSeesOnlyCommitted(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession("a", "b")
	mustExec(t, s, "CREATE TABLE log (id INT PRIMARY KEY, msg VARCHAR)")
	mustExec(t, s, "INSERT INTO log VALUES (1, 'one')")
	mustExec(t, s, "INSERT INTO log VALUES (2, 'two')")

	image := func() string {
		t.Helper()
		rows, err := e.ReadTableDirect("log")
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(rows)
	}
	committed := image()

	w := e.NewSession("w", "b")
	mustExec(t, w, "BEGIN")
	mustExec(t, w, "UPDATE log SET msg = 'dirty' WHERE id = 1")
	mustExec(t, w, "DELETE FROM log WHERE id = 2")
	mustExec(t, w, "INSERT INTO log VALUES (3, 'three')")
	if got := image(); got != committed {
		t.Fatalf("dirty read: %s, committed image is %s", got, committed)
	}
	mustExec(t, w, "COMMIT")
	if got, want := image(), "[[1 dirty] [3 three]]"; got != want {
		t.Fatalf("after commit: %s, want %s", got, want)
	}
	if e.Txns().Active() != 0 {
		t.Fatalf("leaked transactions: %d", e.Txns().Active())
	}
}

// CREATE INDEX while another transaction has uncommitted writes on the
// table: the build must wait for the table's exclusive lock, or the rows
// that writer then commits are missing from the index for good.
func TestCreateIndexWaitsForOpenWriter(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession("a", "b")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, g INT)")
	mustExec(t, s, "BEGIN")
	for i := 1; i <= 390; i++ {
		if i != 2 {
			mustExec(t, s, fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, 1000+i))
		}
	}
	mustExec(t, s, "COMMIT")

	w := e.NewSession("w", "b")
	mustExec(t, w, "BEGIN")
	mustExec(t, w, "INSERT INTO t VALUES (2, 5)")
	mustExec(t, w, "UPDATE t SET g = 7 WHERE id = 1")

	done := make(chan error, 1)
	go func() {
		_, err := s.Exec("CREATE INDEX t_g ON t(g)", nil)
		done <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); e.Locks().WaitingCount() == 0; {
		select {
		case err := <-done:
			t.Fatalf("CREATE INDEX finished (err %v) while a writer held the table", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("CREATE INDEX neither finished nor waited")
		}
		time.Sleep(time.Millisecond)
	}
	mustExec(t, w, "COMMIT")
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	ts, err := e.Stores().Store("t")
	if err != nil {
		t.Fatal(err)
	}
	if n := ts.Indexes()["t_g"].Len(); n != 390 {
		t.Fatalf("index entries: %d, want 390", n)
	}
	for g, id := range map[int]int64{5: 2, 7: 1} {
		res := mustExec(t, s, fmt.Sprintf("SELECT id FROM t WHERE g = %d", g))
		if len(res.Rows) != 1 || res.Rows[0][0].Int() != id {
			t.Fatalf("g=%d through the index: %v, want [[%d]]", g, res.Rows, id)
		}
	}
	if e.Txns().Active() != 0 {
		t.Fatalf("leaked transactions: %d", e.Txns().Active())
	}
}

// Inside the session's own transaction the build takes the lock as that
// transaction (a second one would wait for the first forever) and indexes
// its uncommitted rows; a rollback takes them out again.
func TestCreateIndexInsideOwnTransaction(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession("a", "b")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, g INT)")
	mustExec(t, s, "INSERT INTO t VALUES (1, 10)")
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO t VALUES (2, 20)")
	mustExec(t, s, "CREATE INDEX t_g ON t(g)")
	mustExec(t, s, "ROLLBACK")
	ts, err := e.Stores().Store("t")
	if err != nil {
		t.Fatal(err)
	}
	if n := ts.Indexes()["t_g"].Len(); n != 1 {
		t.Fatalf("index entries after rollback: %d, want 1", n)
	}
	mustExec(t, e.NewSession("w", "b"), "UPDATE t SET g = 11 WHERE id = 1") // lock released
	if e.Txns().Active() != 0 {
		t.Fatalf("leaked transactions: %d", e.Txns().Active())
	}
}

// A unique build that fails on a duplicate leaves neither a catalog entry
// nor a tree behind: the name is free for a second attempt.
func TestCreateIndexFailedUniqueBuildLeavesNothing(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession("a", "b")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, g INT)")
	mustExec(t, s, "INSERT INTO t VALUES (1, 10)")
	mustExec(t, s, "INSERT INTO t VALUES (2, 10)")
	if _, err := s.Exec("CREATE UNIQUE INDEX t_g ON t(g)", nil); err == nil {
		t.Fatal("unique index over duplicate keys was built")
	}
	meta, err := e.Catalog().Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if ix := meta.IndexByName("t_g"); ix != nil {
		t.Fatalf("failed build left catalog entry %+v", ix)
	}
	ts, err := e.Stores().Store("t")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ts.Indexes()["t_g"]; ok {
		t.Fatal("failed build left a tree")
	}
	mustExec(t, s, "UPDATE t SET g = 20 WHERE id = 2")
	mustExec(t, s, "CREATE UNIQUE INDEX t_g ON t(g)")
	if res := mustExec(t, s, "SELECT id FROM t WHERE g = 20"); len(res.Rows) != 1 || res.Rows[0][0].Int() != 2 {
		t.Fatalf("lookup through the rebuilt index: %v", res.Rows)
	}
}

func TestQueryInfoInstancesCounter(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession("a", "b")
	seedAccounts(t, s)
	var lastInstances int64
	h := &instHooks{}
	e.SetHooks(h)
	params := map[string]sqltypes.Value{"id": sqltypes.NewInt(1)}
	for i := 0; i < 5; i++ {
		if _, err := s.Exec("SELECT balance FROM accounts WHERE id = @id", params); err != nil {
			t.Fatal(err)
		}
	}
	lastInstances = h.last
	if lastInstances != 5 {
		t.Fatalf("instances = %d, want 5", lastInstances)
	}
}

type instHooks struct {
	NopHooks
	last int64
}

func (h *instHooks) QueryCompiled(q *QueryInfo) { h.last = q.Instances }

// TestConcurrentPrepareSharesOnePlan: sessions that miss the plan cache on
// the same new text at the same moment may all compile it, but every one of
// them must end up holding the one plan that was stored — the monitor's
// signature cache is keyed by plan identity, so a second stored plan means a
// second signature computation for one statement text.
func TestConcurrentPrepareSharesOnePlan(t *testing.T) {
	e := newTestEngine(t)
	seedAccounts(t, e.NewSession("alice", "app"))

	const sessions = 16
	for round := 0; round < 20; round++ {
		sql := fmt.Sprintf("SELECT balance FROM accounts WHERE id = @id AND balance > %d", round)
		plans := make([]*cachedPlan, sessions)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < sessions; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				s := e.NewSession("alice", "app")
				<-start
				p, err := s.Prepare(sql)
				if err != nil {
					t.Error(err)
					return
				}
				plans[i] = p.cp
			}(i)
		}
		close(start)
		wg.Wait()
		for i, cp := range plans {
			if cp != plans[0] {
				t.Fatalf("round %d: session %d holds plan %p, session 0 holds %p", round, i, cp, plans[0])
			}
		}
	}
}
