package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"sqlcm/internal/storage"
)

// Version garbage is collected by the writers themselves, on the table they
// wrote and under the lock they already hold. These tests pin what that
// costs (chains examined, through MVCCStats().Scanned), what it leaves
// behind (Retained), and that neither a rollback of the pruning transaction
// nor a concurrent old snapshot can tell it happened.

// gcTable creates kv(id PRIMARY KEY, val, g) with an index on g and n rows
// (id i, val 0, g i), loaded in one transaction.
func gcTable(t *testing.T, e *Engine, n int) *Session {
	t.Helper()
	s := e.NewSession("setup", "gc")
	mustExec(t, s, "CREATE TABLE kv (id INT PRIMARY KEY, val INT, g INT)")
	mustExec(t, s, "CREATE INDEX kv_g ON kv (g)")
	mustExec(t, s, "BEGIN")
	for i := 1; i <= n; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO kv VALUES (%d, 0, %d)", i, i))
	}
	mustExec(t, s, "COMMIT")
	return s
}

// Work is proportional to the write: loading rows collects nothing, and
// every updated chain is examined about once, by the pass that cleans it.
func TestVersionGCWorkProportionalToWrites(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession("w", "gc")
	mustExec(t, s, "CREATE TABLE kv (id INT PRIMARY KEY, val INT)")
	rows := 5000
	st := e.MVCCStats()
	for i := 1; i <= rows; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO kv VALUES (%d, 0)", i))
	}
	if got := st.Scanned.Load(); got != 0 {
		t.Fatalf("%d autocommit inserts made the collector examine %d chains", rows, got)
	}
	for i := 1; i <= rows; i++ {
		mustExec(t, s, fmt.Sprintf("UPDATE kv SET val = 1 WHERE id = %d", i))
	}
	// Each pass sees the chains written since the last one, plus the chain
	// its own statement just wrote and cannot clean yet.
	if got := st.Scanned.Load(); got == 0 || got > int64(2*rows) {
		t.Fatalf("examined %d chains for %d updated rows", got, rows)
	}
	if got := st.Pruned.Load(); got < int64(rows-storage.PruneBatch) {
		t.Fatalf("pruned %d of %d superseded versions", got, rows)
	}
	if got := st.Retained.Load(); got < int64(rows) || got > int64(rows+storage.PruneBatch) {
		t.Fatalf("retained %d versions for %d live rows (batch %d)", got, rows, storage.PruneBatch)
	}
	// The explicit sweep takes the rest, and then has nothing to look at.
	e.PruneVersionsNow()
	if got := st.Retained.Load(); got != int64(rows) {
		t.Fatalf("retained %d after the sweep, want %d", got, rows)
	}
	before := st.Scanned.Load()
	e.PruneVersionsNow()
	if got := st.Scanned.Load() - before; got != 0 {
		t.Fatalf("sweep over clean tables examined %d chains", got)
	}
}

// A long-open snapshot pins the watermark: nothing written after it can be
// collected, and the writers must not rescan that growing set every batch.
// Once it closes, the next write collects everything.
func TestVersionGCBacksOffUnderOpenSnapshot(t *testing.T) {
	e := newTestEngine(t)
	rows, hot, writes := 5000, 1000, 10000
	w := gcTable(t, e, rows)
	st := e.MVCCStats()

	old := e.NewSession("old", "gc")
	mustExec(t, old, "BEGIN")
	mustExec(t, old, "SELECT COUNT(*) FROM kv")

	for i := 0; i < writes; i++ {
		mustExec(t, w, fmt.Sprintf("UPDATE kv SET val = %d WHERE id = %d", i, 1+i%hot))
	}
	if got := st.Retained.Load(); got != int64(rows+writes) {
		t.Fatalf("retained %d under the open snapshot, want all %d", got, rows+writes)
	}
	// A pass per batch would examine up to `hot` chains writes/PruneBatch
	// times (39 000); spaced geometrically the passes examine a few times
	// the set's final size.
	if got := st.Scanned.Load(); got > int64(writes) {
		t.Fatalf("examined %d chains across %d un-collectable writes", got, writes)
	}
	res := mustExec(t, old, "SELECT SUM(val) FROM kv")
	if got := res.Rows[0][0].Float(); got != 0 {
		t.Fatalf("old snapshot sees SUM(val) = %g, want 0", got)
	}
	mustExec(t, old, "COMMIT")

	mustExec(t, w, "UPDATE kv SET val = -1 WHERE id = 1")
	// One row is two versions deep until the next pass: the write that ran
	// the pass was not committed yet.
	if got := st.Retained.Load(); got != int64(rows+1) {
		t.Fatalf("retained %d after the snapshot closed, want %d", got, rows+1)
	}
}

// A transaction that ran a pass itself rolls back: every Pop must land on
// the version it pushed onto, so the pass may only have cut below the
// pre-transaction image. Row, index entries and version count come back
// exactly.
func TestRollbackAfterWriteTimePrune(t *testing.T) {
	e := newTestEngine(t)
	const rows = 20
	s := gcTable(t, e, rows)
	st := e.MVCCStats()
	// History below the image the transaction starts from, for its pass to
	// cut: a superseded version and the index entry of the key it carried.
	mustExec(t, s, "UPDATE kv SET val = 7, g = 1000 WHERE id = 1")

	scanned := st.Scanned.Load()
	mustExec(t, s, "BEGIN")
	for i := 1; i <= storage.PruneBatch+50; i++ {
		mustExec(t, s, fmt.Sprintf("UPDATE kv SET val = %d, g = %d WHERE id = 1", 100+i, 2000+i))
	}
	if st.Scanned.Load() == scanned {
		t.Fatal("no pass ran inside the transaction")
	}
	if got := st.Pruned.Load(); got != 1 {
		t.Fatalf("the in-transaction pass pruned %d versions, want the 1 below the starting image", got)
	}
	mustExec(t, s, "ROLLBACK")

	res := mustExec(t, s, "SELECT val, g FROM kv WHERE id = 1")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 7 || res.Rows[0][1].Int() != 1000 {
		t.Fatalf("row after rollback: %v, want [[7 1000]]", res.Rows)
	}
	if res := mustExec(t, s, "SELECT id FROM kv WHERE g = 1000"); len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
		t.Fatalf("g = 1000 through the index: %v, want [[1]]", res.Rows)
	}
	for _, g := range []int{1, 2001, 2000 + storage.PruneBatch, 2050 + storage.PruneBatch} {
		if res := mustExec(t, s, fmt.Sprintf("SELECT id FROM kv WHERE g = %d", g)); len(res.Rows) != 0 {
			t.Fatalf("g = %d still finds %v", g, res.Rows)
		}
	}
	ts, err := e.Stores().Store("kv")
	if err != nil {
		t.Fatal(err)
	}
	for name, bt := range ts.Indexes() {
		if bt.Len() != rows {
			t.Fatalf("index %s holds %d entries for %d rows", name, bt.Len(), rows)
		}
	}
	if got := st.Retained.Load(); got != rows {
		t.Fatalf("retained %d versions for %d rows", got, rows)
	}
	if e.Txns().Active() != 0 {
		t.Fatalf("leaked transactions: %d", e.Txns().Active())
	}
}

// readerBlockHooks counts Query.Blocked events raised for one session.
type readerBlockHooks struct {
	NopHooks
	session int64
	blocked atomic.Int64
}

func (h *readerBlockHooks) QueryBlocked(ev BlockEvent) {
	if ev.Waiter.SessionID == h.session {
		h.blocked.Add(1)
	}
}

// A reader that opened its snapshot before a burst of UPDATEs keeps reading
// its values, through the index and through full scans, while the writer's
// statements prune the very chains it walks — and it never waits for a lock.
func TestSnapshotReadsSurviveWriteTimePrune(t *testing.T) {
	e := newTestEngine(t)
	const rows, hot = 64, 8
	w := gcTable(t, e, rows)
	// Superseded versions below the reader's snapshot, not yet collected:
	// the first pass cuts them while the reader is in those chains.
	for i := 0; i < storage.PruneBatch-hot; i++ {
		mustExec(t, w, fmt.Sprintf("UPDATE kv SET val = val + 1 WHERE id = %d", 1+i%hot))
	}
	if e.MVCCStats().Pruned.Load() != 0 {
		t.Fatal("a pass ran before the reader opened")
	}

	reader := e.NewSession("reader", "gc")
	hooks := &readerBlockHooks{session: reader.ID}
	e.SetHooks(hooks)
	mustExec(t, reader, "BEGIN")
	want := make([]int64, hot+1)
	var wantSum int64
	for id := 1; id <= hot; id++ {
		want[id] = mustExec(t, reader, fmt.Sprintf("SELECT val FROM kv WHERE id = %d", id)).Rows[0][0].Int()
		wantSum += want[id]
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 8*storage.PruneBatch; i++ {
			if _, err := w.Exec(fmt.Sprintf("UPDATE kv SET val = val + 1 WHERE id = %d", 1+i%hot), nil); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()
	for reads, finished := 0, false; !finished; reads++ {
		select {
		case <-done:
			finished = true // one more round, over the final chains
		default:
		}
		id := 1 + reads%hot
		res := mustExec(t, reader, fmt.Sprintf("SELECT val FROM kv WHERE id = %d", id))
		if len(res.Rows) != 1 || res.Rows[0][0].Int() != want[id] {
			t.Fatalf("read %d: id %d = %v, snapshot value %d", reads, id, res.Rows, want[id])
		}
		res = mustExec(t, reader, "SELECT SUM(val) FROM kv")
		if got := res.Rows[0][0].Float(); got != float64(wantSum) {
			t.Fatalf("read %d: scan sums %g, snapshot sum %d", reads, got, wantSum)
		}
	}
	wg.Wait()
	mustExec(t, reader, "COMMIT")
	if e.MVCCStats().Pruned.Load() == 0 {
		t.Fatal("the writer never pruned")
	}
	if n := hooks.blocked.Load(); n != 0 {
		t.Fatalf("Query.Blocked fired %d times for the reader", n)
	}
}

// CREATE INDEX publishes the table's index set while point SELECTs on other
// sessions read it without any lock.
func TestCreateIndexRacesPointSelects(t *testing.T) {
	e := newTestEngine(t)
	gcTable(t, e, 200)
	stop := make(chan struct{})
	var truncating atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s := e.NewSession(fmt.Sprintf("r%d", r), "gc")
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := 1 + (i*7+r)%200
				res, err := s.Exec(fmt.Sprintf("SELECT g FROM kv WHERE id = %d", id), nil)
				if err != nil {
					t.Errorf("SELECT id %d: %v", id, err)
					return
				}
				if len(res.Rows) == 0 && truncating.Load() {
					continue
				}
				if len(res.Rows) != 1 || res.Rows[0][0].Int() != int64(id) {
					t.Errorf("SELECT id %d: %v", id, res.Rows)
					return
				}
			}
		}(r)
	}
	// One reader filters on the column being indexed, so its plans pick a
	// new index as soon as the catalog lists it: the tree must be there.
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := e.NewSession("val", "gc")
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.Exec("SELECT id FROM kv WHERE val = 0", nil); err != nil {
				t.Errorf("SELECT by val: %v", err) // e.g. index "kv_val_3" has no storage
				return
			}
		}
	}()
	ddl := e.NewSession("ddl", "gc")
	for i := 0; i < 20; i++ {
		mustExec(t, ddl, fmt.Sprintf("CREATE INDEX kv_val_%d ON kv (val)", i))
	}
	truncating.Store(true)
	if err := e.TruncateTableDirect("kv"); err != nil {
		t.Error(err)
	}
	close(stop)
	wg.Wait()
}
