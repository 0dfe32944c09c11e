package engine

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"sqlcm/internal/lock"
	"sqlcm/internal/sqltypes"
)

// Row locking: a point UPDATE or DELETE located by a unique key holds IX on
// its table and X on its row, taken before the row is read. Every test here
// runs under the race tier.

// waitForWaiters blocks until n lock requests are queued.
func waitForWaiters(t *testing.T, e *Engine, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); e.locks.WaitingCount() < n; {
		if time.Now().After(deadline) {
			t.Fatalf("%d lock waiters, want %d", e.locks.WaitingCount(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRowLockDisjointRowsDoNotBlock(t *testing.T) {
	e := newTestEngine(t)
	s1 := e.NewSession("first", "app")
	seedAccounts(t, s1)
	h := &recHooks{}
	e.SetHooks(h)

	mustExec(t, s1, "BEGIN")
	mustExec(t, s1, "UPDATE accounts SET balance = 0 WHERE id = 1")
	s2 := e.NewSession("second", "app")
	done := make(chan error, 1)
	go func() {
		_, err := s2.Exec("DELETE FROM accounts WHERE id = 2", nil)
		if err == nil {
			_, err = s2.Exec("UPDATE accounts SET balance = 5 WHERE id = 3", nil)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("writer of another row waited for the open transaction")
	}
	mustExec(t, s1, "COMMIT")
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.blocked != 0 {
		t.Fatalf("Query.Blocked events: %d, want 0", h.blocked)
	}
}

// TestRowLockNoLostUpdates: concurrent read-modify-write transactions on a
// few hot rows lose no increment. Each transaction holds its row a little
// before it commits, so the others queue on it.
func TestRowLockNoLostUpdates(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession("setup", "app")
	mustExec(t, s, "CREATE TABLE hot (id INT PRIMARY KEY, v INT)")
	const keys, sessions, txns = 3, 6, 40
	for k := 1; k <= 50; k++ { // enough rows that the key is looked up, not scanned
		mustExec(t, s, fmt.Sprintf("INSERT INTO hot VALUES (%d, 0)", k))
	}
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE hot SET v = v WHERE id = 1")
	if mode := e.locks.Held(s.tx.ID)[lock.TableResource("hot")]; mode != lock.IntentExclusive {
		t.Fatalf("point UPDATE holds %s on its table, want IX", mode)
	}
	mustExec(t, s, "COMMIT")
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := e.NewSession(fmt.Sprintf("w%d", g), "app")
			for i := 0; i < txns; i++ {
				k := (g+i)%keys + 1
				for _, sql := range []string{"BEGIN", fmt.Sprintf("UPDATE hot SET v = v + 1 WHERE id = %d", k), "COMMIT"} {
					if sql == "COMMIT" {
						time.Sleep(100 * time.Microsecond)
					}
					if _, err := sess.Exec(sql, nil); err != nil {
						errs <- fmt.Errorf("w%d txn %d %q: %w", g, i, sql, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var total int64
	for k := 1; k <= keys; k++ {
		res := mustExec(t, s, fmt.Sprintf("SELECT v FROM hot WHERE id = %d", k))
		want := int64(0)
		for g := 0; g < sessions; g++ {
			for i := 0; i < txns; i++ {
				if (g+i)%keys+1 == k {
					want++
				}
			}
		}
		if got := res.Rows[0][0].Int(); got != want {
			t.Errorf("id %d: v = %d, want %d", k, got, want)
		}
		total += res.Rows[0][0].Int()
	}
	if total != sessions*txns {
		t.Fatalf("sum of v = %d, want %d", total, sessions*txns)
	}
}

// TestRowLockDeleteBeforeWaitingUpdate: an UPDATE waiting on a row whose
// DELETE commits finds nothing to change and brings nothing back.
func TestRowLockDeleteBeforeWaitingUpdate(t *testing.T) {
	e := newTestEngine(t)
	s1 := e.NewSession("deleter", "app")
	seedAccounts(t, s1)
	mustExec(t, s1, "BEGIN")
	mustExec(t, s1, "DELETE FROM accounts WHERE id = 7")
	s2 := e.NewSession("updater", "app")
	done := make(chan *Result, 1)
	go func() {
		res, err := s2.Exec("UPDATE accounts SET balance = balance + 1 WHERE id = 7", nil)
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	waitForWaiters(t, e, 1)
	mustExec(t, s1, "COMMIT")
	if res := <-done; res == nil || res.Affected != 0 {
		t.Fatalf("update of a deleted row: %+v, want 0 rows affected", res)
	}
	if res := mustExec(t, s1, "SELECT balance FROM accounts WHERE id = 7"); len(res.Rows) != 0 {
		t.Fatalf("deleted row resurrected: %v", res.Rows)
	}
	if res := mustExec(t, s1, "SELECT COUNT(*) FROM accounts"); res.Rows[0][0].Int() != 49 {
		t.Fatalf("rows: %v, want 49", res.Rows[0][0])
	}
}

// TestRowLockUpgradeDeadlock: a transaction holding a row lock that runs a
// table-locked write upgrades IX to X; with another point writer waiting
// on its row, that is a deadlock, and one of the two is its victim.
func TestRowLockUpgradeDeadlock(t *testing.T) {
	e := newTestEngine(t)
	s1 := e.NewSession("t1", "app")
	seedAccounts(t, s1)
	mustExec(t, s1, "BEGIN")
	mustExec(t, s1, "UPDATE accounts SET balance = 1 WHERE id = 1")
	s2 := e.NewSession("t2", "app")
	second := make(chan error, 1)
	go func() {
		_, err := s2.Exec("UPDATE accounts SET balance = 2 WHERE id = 1", nil)
		second <- err
	}()
	waitForWaiters(t, e, 1)
	_, first := s1.Exec("UPDATE accounts SET balance = 3 WHERE owner = 'user1'", nil)
	if first == nil {
		mustExec(t, s1, "COMMIT")
	}
	errs := []error{first, <-second}
	victims := 0
	for _, err := range errs {
		switch {
		case errors.Is(err, lock.ErrDeadlock):
			victims++
		case err != nil:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if victims != 1 {
		t.Fatalf("errors %v: want exactly one deadlock victim", errs)
	}
}

// TestCreateIndexWaitsForPointWriter: CREATE INDEX needs the table's X
// lock, so it waits for an open point writer's IX and then indexes the
// version that writer committed.
func TestCreateIndexWaitsForPointWriter(t *testing.T) {
	e := newTestEngine(t)
	s1 := e.NewSession("writer", "app")
	seedAccounts(t, s1)
	mustExec(t, s1, "BEGIN")
	mustExec(t, s1, "UPDATE accounts SET balance = 777 WHERE id = 1")
	s2 := e.NewSession("ddl", "app")
	done := make(chan error, 1)
	go func() {
		_, err := s2.Exec("CREATE INDEX accounts_balance ON accounts (balance)", nil)
		done <- err
	}()
	waitForWaiters(t, e, 1) // the build's X request, queued behind the writer's IX
	mustExec(t, s1, "COMMIT")
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	ts, err := e.reg.Store("accounts")
	if err != nil {
		t.Fatal(err)
	}
	bt := ts.Indexes()["accounts_balance"]
	if bt == nil {
		t.Fatal("index has no storage")
	}
	if rids := bt.GetAll(sqltypes.NewFloat(777).Encode(nil)); len(rids) != 1 {
		t.Fatalf("entries for the committed balance: %v, want 1", rids)
	}
	if rids := bt.GetAll(sqltypes.NewFloat(100).Encode(nil)); len(rids) != 0 {
		t.Fatalf("entries for the superseded balance: %v, want none", rids)
	}
}
