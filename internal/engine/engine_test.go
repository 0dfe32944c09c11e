package engine

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"sqlcm/internal/lock"
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
		_, err := s2.Exec("UPDATE accounts SET balance = 1 WHERE id = 1", nil)
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

// heldRelease delays every ReleasedWithWaiters until hold is closed, so a
// granted waiter can run to its commit before the release is delivered.
type heldRelease struct {
	lock.Notifier
	hold chan struct{}
}

func (n heldRelease) ReleasedWithWaiters(holder lock.TxnID, res lock.Resource, waiters []lock.WaiterInfo) {
	<-n.hold
	n.Notifier.ReleasedWithWaiters(holder, res, waiters)
}

// TestBlockReleasedSurvivesWaiterCommit: the waiter a release grants may
// run, commit and end its transaction before the releasing thread delivers
// ReleasedWithWaiters; its Block_Released event (the paper's Example 2
// pairing) must still be raised.
func TestBlockReleasedSurvivesWaiterCommit(t *testing.T) {
	e := newTestEngine(t)
	s1 := e.NewSession("writer", "app")
	seedAccounts(t, s1)
	h := &recHooks{}
	e.SetHooks(h)
	hold := make(chan struct{})
	e.locks.SetNotifier(heldRelease{Notifier: &lockBridge{e: e}, hold: hold})

	mustExec(t, s1, "BEGIN")
	mustExec(t, s1, "UPDATE accounts SET balance = 0 WHERE id = 1")
	s2 := e.NewSession("waiter", "app")
	waiter := make(chan error, 1)
	go func() {
		_, err := s2.Exec("UPDATE accounts SET balance = 1 WHERE id = 1", nil)
		waiter <- err
	}()
	for e.locks.WaitingCount() == 0 {
		time.Sleep(time.Millisecond)
	}
	committed := make(chan error, 1)
	go func() {
		_, err := s1.Exec("COMMIT", nil)
		committed <- err
	}()
	if err := <-waiter; err != nil { // granted and committed, release still held
		t.Fatal(err)
	}
	close(hold)
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.released != 1 {
		t.Fatalf("released events: %d, want 1", h.released)
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
		_, err := s2.Exec("UPDATE accounts SET balance = 1 WHERE id = 1", nil)
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
	// The writer's rollback below releases the lock, which ends the query.
	go s2.Exec("UPDATE accounts SET balance = 1 WHERE id = 1", nil) //nolint:errcheck
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

// An index built after a snapshot was taken holds the chain heads of its
// build: the old snapshot's SELECTs, planned onto the new index, must still
// find the row whose key moved and the row deleted since — by equality,
// by range and by an index nested-loop join probe.
func TestCreateIndexAfterSnapshotKeepsOldRows(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession("a", "b")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, g INT)")
	for i := 1; i <= 20; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, i*10))
	}
	mustExec(t, s, "CREATE TABLE probe (g INT)")
	mustExec(t, s, "INSERT INTO probe VALUES (10)")
	mustExec(t, s, "INSERT INTO probe VALUES (20)")
	old := e.NewSession("old", "b")
	mustExec(t, old, "BEGIN")
	mustExec(t, old, "SELECT id FROM t WHERE id = 1") // the snapshot is taken

	mustExec(t, s, "UPDATE t SET g = 999 WHERE id = 1")
	mustExec(t, s, "DELETE FROM t WHERE id = 2")
	mustExec(t, s, "CREATE INDEX t_g ON t(g)")

	for _, c := range []struct {
		sql  string
		want []int64
	}{
		{"SELECT id FROM t WHERE g = 10", []int64{1}},
		{"SELECT id FROM t WHERE g = 20", []int64{2}},
		{"SELECT id FROM t WHERE g = 999", nil},
		{"SELECT id FROM t WHERE g >= 10 AND g < 30", []int64{1, 2}},
		{"SELECT x.id FROM probe p JOIN t x ON p.g = x.g", []int64{1, 2}},
	} {
		res := mustExec(t, old, c.sql)
		var got []int64
		for _, r := range res.Rows {
			got = append(got, r[0].Int())
		}
		slices.Sort(got)
		if !slices.Equal(got, c.want) {
			t.Errorf("old snapshot, %s: %v, want %v", c.sql, got, c.want)
		}
	}
	mustExec(t, old, "COMMIT")

	// A snapshot taken after the build reads through the tree.
	if res := mustExec(t, s, "SELECT id FROM t WHERE g = 999"); len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
		t.Fatalf("new snapshot, g = 999: %v, want [[1]]", res.Rows)
	}
	if res := mustExec(t, s, "SELECT id FROM t WHERE g = 20"); len(res.Rows) != 0 {
		t.Fatalf("new snapshot, g = 20: %v, want none", res.Rows)
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
// the same new template at the same moment may all compile it, but every
// one of them must end up holding the one plan that was stored — the
// signatures live in the plan's slot, so a second stored plan means a
// second signature computation for one template.
func TestConcurrentPrepareSharesOnePlan(t *testing.T) {
	e := newTestEngine(t)
	seedAccounts(t, e.NewSession("alice", "app"))

	const sessions = 16
	for round := 0; round < 20; round++ {
		// The LIMIT count is part of the template: a new one every round.
		sql := fmt.Sprintf("SELECT balance FROM accounts WHERE id = @id AND balance > %d LIMIT %d", round, round+1)
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

// TestFloatNaNEqualsOnlyNaN: a NaN bound into a FLOAT column equals only
// NaN and sorts above every number, +Inf included, with and without an
// index on the column: the predicate, the index range and ORDER BY agree.
// Rows far below the probed values make the index the planner's choice.
func TestFloatNaNEqualsOnlyNaN(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		t.Run(fmt.Sprintf("indexed=%v", indexed), func(t *testing.T) {
			e := newTestEngine(t)
			s := e.NewSession("alice", "app")
			mustExec(t, s, "CREATE TABLE t (k INT PRIMARY KEY, x FLOAT)")
			if indexed {
				mustExec(t, s, "CREATE INDEX t_x ON t (x)")
			}
			xs := []float64{0, math.NaN(), math.Inf(1), -1}
			for i := range 200 {
				xs = append(xs, float64(-1000-i))
			}
			for k, x := range xs {
				params := map[string]sqltypes.Value{"k": sqltypes.NewInt(int64(k)), "x": sqltypes.NewFloat(x)}
				if _, err := s.Exec("INSERT INTO t VALUES (@k, @x)", params); err != nil {
					t.Fatal(err)
				}
			}
			nan := map[string]sqltypes.Value{"nan": sqltypes.NewFloat(math.NaN())}
			for _, q := range []struct{ sql, want string }{
				{"SELECT k FROM t WHERE x = 0.0", "[0]"},
				{"SELECT k FROM t WHERE x = @nan", "[1]"},
				{"SELECT k FROM t WHERE x > 1000.0 ORDER BY k", "[1 2]"},
				{"SELECT k FROM t WHERE x > -5.0 AND x < 1000.0 ORDER BY k", "[0 3]"},
				{"SELECT k FROM t WHERE x > -5.0 AND x <> 0.0 ORDER BY k", "[1 2 3]"},
				{"SELECT k, x FROM t WHERE x > -5.0 ORDER BY x", "[3 0 2 1]"},
			} {
				res, err := s.Exec(q.sql, nan)
				if err != nil {
					t.Fatalf("%s: %v", q.sql, err)
				}
				var got []int64
				for _, r := range res.Rows {
					got = append(got, r[0].Int())
				}
				if fmt.Sprint(got) != q.want {
					t.Errorf("%s = %v, want %s", q.sql, got, q.want)
				}
			}
		})
	}
}

// TestIndexSeekMatchesScan: an index seek returns the rows a sequential
// scan returns when a bound's numeric kind is not its column's — an INT
// bound on a FLOAT column, a fractional, NaN, infinite or out-of-int64
// FLOAT bound on an INT column — and when a row was written as -0.0. Each
// query runs on a table with indexes on x and n and on one without; the
// row sets must agree, and a few are pinned as well.
func TestIndexSeekMatchesScan(t *testing.T) {
	special := map[string]sqltypes.Value{
		"negzero": sqltypes.NewFloat(math.Copysign(0, -1)),
		"nan":     sqltypes.NewFloat(math.NaN()),
		"inf":     sqltypes.NewFloat(math.Inf(1)),
		"ninf":    sqltypes.NewFloat(math.Inf(-1)),
		"i3":      sqltypes.NewInt(3),
		"f3":      sqltypes.NewFloat(3),
		"null":    sqltypes.Null,
	}
	type query struct {
		sql  string
		want string // "" when only the agreement is checked
	}
	where := func(cond, want string) query {
		return query{"SELECT k FROM t WHERE " + cond + " ORDER BY k", want}
	}
	queries := []query{
		where("x = 5", "[5]"),
		where("x > 1000", "[202]"),
		where("x >= 5 AND x < 8", "[5 6 7]"),
		where("x <= 1", "[0 1 200]"),
		where("x = 0", "[0 200]"),
		where("x = 0.0", "[0 200]"),
		where("x = @negzero", "[0 200]"),
		where("x < 0.5 AND x > -0.5", "[0 200]"),
		where("x = @i3", "[3]"),
		where("x = @null", "[]"),
		where("x < @null", "[]"),
		where("x > @null", "[]"),
		where("x > 196", ""),
		where("x < @ninf", ""),
		where("x > @inf", ""),
		where("n > 2.5", ""),
		where("n >= 196.5", "[197 198 199 203]"),
		where("n = 3.0", "[3]"),
		where("n = @f3", "[3]"),
		where("n = 2.5", "[]"),
		where("n < 2.5", "[0 1 2 201 202]"),
		where("n <= 2.5", "[0 1 2 201 202]"),
		where("n > 2.5 AND n < 5.5", "[3 4 5]"),
		where("n > -0.5 AND n <= 1.0", "[0 1]"),
		where("n < -6.5", "[201 202]"),
		where("n > @nan", "[]"),
		where("n < @nan", ""),
		where("n = @nan", "[]"),
		where("n > @inf", "[]"),
		where("n < @inf", ""),
		where("n = @inf", "[]"),
		where("n > @ninf", ""),
		where("n < @ninf", "[]"),
		where("n > 1e19", "[]"),
		where("n < 1e19", ""),
		where("n > -1e19 AND n < -1000.0", "[202]"),
		where("n < -1e19", "[]"),
		where("n = 1e19", "[]"),
		// Index nested-loop probes: INT outer values into t_x, FLOAT
		// ones into t_n.
		{"SELECT t.k FROM u JOIN t ON t.x = u.m ORDER BY k", "[0 5 200]"},
		{"SELECT t.k FROM u JOIN t ON t.n = u.f ORDER BY k", "[2]"},
	}
	run := func(t *testing.T, indexed bool) []string {
		e := newTestEngine(t)
		s := e.NewSession("alice", "app")
		mustExec(t, s, "CREATE TABLE t (k INT PRIMARY KEY, x FLOAT, n INT)")
		if indexed {
			mustExec(t, s, "CREATE INDEX t_x ON t (x)")
			mustExec(t, s, "CREATE INDEX t_n ON t (n)")
		}
		ins := func(k int64, x, n sqltypes.Value) {
			params := map[string]sqltypes.Value{"k": sqltypes.NewInt(k), "x": x, "n": n}
			if _, err := s.Exec("INSERT INTO t VALUES (@k, @x, @n)", params); err != nil {
				t.Fatal(err)
			}
		}
		for i := range int64(200) {
			ins(i, sqltypes.NewFloat(float64(i)), sqltypes.NewInt(i))
		}
		ins(200, special["negzero"], sqltypes.Null)
		ins(201, sqltypes.Null, sqltypes.NewInt(-7))
		ins(202, special["nan"], sqltypes.NewInt(math.MinInt64))
		ins(203, sqltypes.Null, sqltypes.NewInt(math.MaxInt64))
		mustExec(t, s, "CREATE TABLE u (id INT PRIMARY KEY, m INT, f FLOAT)")
		mustExec(t, s, "INSERT INTO u VALUES (1, 5, 2.0), (2, 0, 7.5), (3, NULL, NULL)")
		var out []string
		for _, q := range queries {
			res, err := s.Exec(q.sql, special)
			if err != nil {
				t.Fatalf("%s: %v", q.sql, err)
			}
			var ks []int64
			for _, r := range res.Rows {
				ks = append(ks, r[0].Int())
			}
			out = append(out, fmt.Sprint(ks))
		}
		return out
	}
	scan, seek := run(t, false), run(t, true)
	for i, q := range queries {
		if seek[i] != scan[i] {
			t.Errorf("%s: index %s, scan %s", q.sql, seek[i], scan[i])
		}
		if q.want != "" && scan[i] != q.want {
			t.Errorf("%s: scan %s, want %s", q.sql, scan[i], q.want)
		}
	}
}

// TestOrderByQualifiedColumnAndIsNullAfterComparison: ORDER BY resolves a
// qualified column the way the select list and WHERE do, on one table and
// over a join; and IS [NOT] NULL after a comparison applies to the
// comparison, as in PostgreSQL: n <> 0 IS NULL is (n <> 0) IS NULL.
func TestOrderByQualifiedColumnAndIsNullAfterComparison(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession("alice", "app")
	mustExec(t, s, "CREATE TABLE t (k INT PRIMARY KEY, n INT)")
	mustExec(t, s, "INSERT INTO t VALUES (3, 1), (1, 2), (2, NULL), (4, 0)")
	mustExec(t, s, "CREATE TABLE u (m INT PRIMARY KEY)")
	mustExec(t, s, "INSERT INTO u VALUES (1), (2), (0)")
	for _, q := range []struct{ sql, want string }{
		{"SELECT t.k FROM t ORDER BY t.k", "[1 2 3 4]"},
		{"SELECT k FROM t ORDER BY t.k DESC", "[4 3 2 1]"},
		{"SELECT t.k FROM t ORDER BY k", "[1 2 3 4]"},
		{"SELECT * FROM t ORDER BY t.k", "[1 2 3 4]"},
		{"SELECT t.k FROM u JOIN t ON t.n = u.m ORDER BY t.k", "[1 3 4]"},
		{"SELECT t.k, u.m FROM u JOIN t ON t.n = u.m ORDER BY u.m DESC", "[1 3 4]"},
		{"SELECT k FROM t WHERE n <> 0 IS NULL ORDER BY k", "[2]"},
		{"SELECT k FROM t WHERE n = 0 IS NOT NULL ORDER BY k", "[1 3 4]"},
		{"SELECT k FROM t WHERE n = 0 IS NOT NULL AND n = 0 ORDER BY k", "[4]"},
	} {
		res, err := s.Exec(q.sql, nil)
		if err != nil {
			t.Errorf("%s: %v", q.sql, err)
			continue
		}
		var got []int64
		for _, r := range res.Rows {
			got = append(got, r[0].Int())
		}
		if fmt.Sprint(got) != q.want {
			t.Errorf("%s = %v, want %s", q.sql, got, q.want)
		}
	}
}

// TestOrderByColumnOutsideSelectList: a key that names no output column
// sorts the projection's input, as in PostgreSQL, and a key naming an
// output column then sorts by that column's expression. An aggregate
// SELECT must name its output columns, and says so when it does not.
func TestOrderByColumnOutsideSelectList(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession("alice", "app")
	mustExec(t, s, "CREATE TABLE t (k INT PRIMARY KEY, n INT)")
	mustExec(t, s, "INSERT INTO t VALUES (3, 1), (1, 2), (2, 5), (4, 0)")
	for _, q := range []struct{ sql, want string }{
		{"SELECT k FROM t ORDER BY n", "[4 3 1 2]"},
		{"SELECT k FROM t ORDER BY n DESC LIMIT 2", "[2 1]"},
		{"SELECT k AS x FROM t ORDER BY k", "[1 2 3 4]"},
		{"SELECT k AS x FROM t ORDER BY t.k DESC", "[4 3 2 1]"},
		{"SELECT k, n * 2 AS m FROM t ORDER BY m DESC, n", "[2 1 3 4]"},
		{"SELECT k FROM t WHERE n > 0 ORDER BY n + k", "[1 3 2]"},
	} {
		res, err := s.Exec(q.sql, nil)
		if err != nil {
			t.Errorf("%s: %v", q.sql, err)
			continue
		}
		var got []int64
		for _, r := range res.Rows {
			got = append(got, r[0].Int())
		}
		if fmt.Sprint(got) != q.want {
			t.Errorf("%s = %v, want %s", q.sql, got, q.want)
		}
	}
	_, err := s.Exec("SELECT k, COUNT(*) FROM t GROUP BY k ORDER BY n", nil)
	if err == nil || !strings.Contains(err.Error(), "ORDER BY of an aggregate SELECT must name its output columns") {
		t.Errorf("aggregate ORDER BY on a non-output column: err = %v", err)
	}
}
