package engine

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// The MVCC concurrency-anomaly suite pins the isolation level the engine
// provides with snapshot reads + strict-2PL writes: snapshot isolation.
// Repeatable read holds, dirty and non-repeatable reads are impossible,
// lost updates are prevented by exclusive write locks, and write skew is
// permitted (documented, not a bug). Each case is a deterministic
// interleaving driven by explicit transactions on separate sessions; the
// suite is exercised under -race by the regular race tier.

func anomalyEngine(t *testing.T) (*Engine, *Session) {
	t.Helper()
	e := newTestEngine(t)
	s := e.NewSession("setup", "anomaly")
	mustExec(t, s, "CREATE TABLE kv (id INT PRIMARY KEY, val INT)")
	mustExec(t, s, "INSERT INTO kv VALUES (1, 10)")
	mustExec(t, s, "INSERT INTO kv VALUES (2, 20)")
	return e, s
}

func readVal(t *testing.T, s *Session, id int) int64 {
	t.Helper()
	res := mustExec(t, s, fmt.Sprintf("SELECT val FROM kv WHERE id = %d", id))
	if len(res.Rows) != 1 {
		t.Fatalf("id %d: %d rows", id, len(res.Rows))
	}
	return res.Rows[0][0].Int()
}

func TestMVCCAnomalies(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, e *Engine)
	}{
		{name: "no dirty read", run: func(t *testing.T, e *Engine) {
			// A reader never observes another transaction's uncommitted
			// write, and a rolled-back write is never observed at all.
			writer := e.NewSession("writer", "a")
			reader := e.NewSession("reader", "a")
			mustExec(t, writer, "BEGIN")
			mustExec(t, writer, "UPDATE kv SET val = 999 WHERE id = 1")
			if got := readVal(t, reader, 1); got != 10 {
				t.Fatalf("dirty read: saw %d, want 10", got)
			}
			mustExec(t, writer, "ROLLBACK")
			if got := readVal(t, reader, 1); got != 10 {
				t.Fatalf("after rollback: saw %d, want 10", got)
			}
		}},
		{name: "repeatable read / no non-repeatable read", run: func(t *testing.T, e *Engine) {
			// A transaction's reads are stable against concurrent commits:
			// both re-reading a row and re-running an aggregate return the
			// snapshot values, and the committed change appears only to
			// transactions that start afterwards.
			rt := e.NewSession("repeat", "a")
			writer := e.NewSession("writer", "a")
			mustExec(t, rt, "BEGIN")
			if got := readVal(t, rt, 1); got != 10 {
				t.Fatalf("first read: %d", got)
			}
			mustExec(t, writer, "UPDATE kv SET val = 11 WHERE id = 1")
			if got := readVal(t, rt, 1); got != 10 {
				t.Fatalf("non-repeatable read: saw %d mid-transaction", got)
			}
			res := mustExec(t, rt, "SELECT SUM(val) AS s FROM kv")
			if got := res.Rows[0][0].Float(); got != 30 {
				t.Fatalf("snapshot aggregate: %g, want 30", got)
			}
			mustExec(t, rt, "COMMIT")
			if got := readVal(t, rt, 1); got != 11 {
				t.Fatalf("fresh snapshot after commit: %d, want 11", got)
			}
		}},
		{name: "no phantom within a transaction", run: func(t *testing.T, e *Engine) {
			// Rows inserted and committed by others do not appear in a
			// snapshot taken before the insert (snapshot isolation has no
			// read phantoms).
			rt := e.NewSession("repeat", "a")
			writer := e.NewSession("writer", "a")
			mustExec(t, rt, "BEGIN")
			res := mustExec(t, rt, "SELECT COUNT(*) FROM kv")
			if got := res.Rows[0][0].Int(); got != 2 {
				t.Fatalf("count: %d", got)
			}
			mustExec(t, writer, "INSERT INTO kv VALUES (3, 30)")
			res = mustExec(t, rt, "SELECT COUNT(*) FROM kv")
			if got := res.Rows[0][0].Int(); got != 2 {
				t.Fatalf("phantom: count %d mid-transaction", got)
			}
			mustExec(t, rt, "COMMIT")
			res = mustExec(t, rt, "SELECT COUNT(*) FROM kv")
			if got := res.Rows[0][0].Int(); got != 3 {
				t.Fatalf("after commit: count %d", got)
			}
		}},
		{name: "own writes visible", run: func(t *testing.T, e *Engine) {
			// A transaction reads its own uncommitted writes through the
			// snapshot path (Self-visibility), including deletes.
			s := e.NewSession("self", "a")
			mustExec(t, s, "BEGIN")
			mustExec(t, s, "UPDATE kv SET val = 77 WHERE id = 1")
			if got := readVal(t, s, 1); got != 77 {
				t.Fatalf("own write invisible: %d", got)
			}
			mustExec(t, s, "DELETE FROM kv WHERE id = 2")
			res := mustExec(t, s, "SELECT COUNT(*) FROM kv")
			if got := res.Rows[0][0].Int(); got != 1 {
				t.Fatalf("own delete invisible: count %d", got)
			}
			mustExec(t, s, "ROLLBACK")
			if got := readVal(t, s, 1); got != 10 {
				t.Fatalf("rollback: %d", got)
			}
		}},
		{name: "lost update prevented", run: func(t *testing.T, e *Engine) {
			// Concurrent read-modify-write increments serialize on the
			// exclusive table lock: UPDATE reads current-mode under the X
			// lock, so both increments land (no lost update).
			const workers, incs = 4, 5
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					s := e.NewSession(fmt.Sprintf("inc%d", w), "a")
					for i := 0; i < incs; i++ {
						if _, err := s.Exec("UPDATE kv SET val = val + 1 WHERE id = 1", nil); err != nil {
							t.Errorf("worker %d: %v", w, err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			chk := e.NewSession("check", "a")
			if got := readVal(t, chk, 1); got != 10+workers*incs {
				t.Fatalf("lost update: val %d, want %d", got, 10+workers*incs)
			}
		}},
		{name: "write skew permitted (documented)", run: func(t *testing.T, e *Engine) {
			// Snapshot isolation admits write skew: two transactions each
			// read the other's row and write their own, both validate the
			// stale "sum >= 30" invariant against their snapshots, and both
			// commit — the invariant is broken afterwards. Table-granularity
			// X locks do not help because the writes touch different tables.
			// This case documents the anomaly as permitted behavior.
			st := e.NewSession("setup2", "a")
			mustExec(t, st, "CREATE TABLE xrow (id INT PRIMARY KEY, val INT)")
			mustExec(t, st, "CREATE TABLE yrow (id INT PRIMARY KEY, val INT)")
			mustExec(t, st, "INSERT INTO xrow VALUES (1, 20)")
			mustExec(t, st, "INSERT INTO yrow VALUES (1, 20)")

			a := e.NewSession("skewA", "a")
			b := e.NewSession("skewB", "a")
			mustExec(t, a, "BEGIN")
			mustExec(t, b, "BEGIN")
			ra := mustExec(t, a, "SELECT val FROM yrow WHERE id = 1").Rows[0][0].Int()
			rb := mustExec(t, b, "SELECT val FROM xrow WHERE id = 1").Rows[0][0].Int()
			if ra != 20 || rb != 20 {
				t.Fatalf("snapshot reads: %d %d", ra, rb)
			}
			// Each withdraws 20 from its own row, "knowing" the other row
			// still holds 20.
			mustExec(t, a, "UPDATE xrow SET val = 0 WHERE id = 1")
			mustExec(t, b, "UPDATE yrow SET val = 0 WHERE id = 1")
			mustExec(t, a, "COMMIT")
			mustExec(t, b, "COMMIT")
			chk := e.NewSession("check", "a")
			x := mustExec(t, chk, "SELECT val FROM xrow WHERE id = 1").Rows[0][0].Int()
			y := mustExec(t, chk, "SELECT val FROM yrow WHERE id = 1").Rows[0][0].Int()
			if x+y != 0 {
				t.Fatalf("expected write skew to break the invariant, got x=%d y=%d", x, y)
			}
		}},
		{name: "readers never block behind writers", run: func(t *testing.T, e *Engine) {
			// A snapshot SELECT completes while another transaction holds
			// the table's exclusive lock — the MVCC headline property.
			writer := e.NewSession("writer", "a")
			mustExec(t, writer, "BEGIN")
			mustExec(t, writer, "UPDATE kv SET val = 0 WHERE id = 1")
			reader := e.NewSession("reader", "a")
			start := time.Now()
			if got := readVal(t, reader, 1); got != 10 {
				t.Fatalf("read under X lock: %d", got)
			}
			if el := time.Since(start); el > time.Second {
				t.Fatalf("reader waited %v behind a writer", el)
			}
			mustExec(t, writer, "ROLLBACK")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, _ := anomalyEngine(t)
			tc.run(t, e)
		})
	}
}
