package engine

import (
	"fmt"
	"runtime"
	"testing"

	"sqlcm/internal/sqltypes"
)

// liveHeap returns the heap that survives a full collection.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestOpenTransactionHoldsNoRowCopies: the undo of an INSERT or DELETE keeps
// what the transaction already holds (the version's record, the index keys),
// not a decoded copy of the row, so an open transaction costs at most a
// closure per row more than the same work committed. 20 000 six-column rows
// go in, then out, each in one transaction; the live heap is read before
// and after each COMMIT.
func TestOpenTransactionHoldsNoRowCopies(t *testing.T) {
	const (
		rows      = 20_000
		undoBytes = 128 // per row, on top of what the committed rows hold
	)
	e := newTestEngine(t)
	s := e.NewSession("loader", "test")
	mustExec(t, s, `CREATE TABLE li (l_id INT PRIMARY KEY, l_orderkey INT, l_partkey INT,
		l_quantity FLOAT, l_extendedprice FLOAT, l_comment VARCHAR)`)
	mustExec(t, s, "CREATE INDEX idx_li_orderkey ON li (l_orderkey)")
	ins, err := s.Prepare("INSERT INTO li VALUES (@i, @o, @p, @q, @e, @c)")
	if err != nil {
		t.Fatal(err)
	}
	// perRow runs BEGIN, work and COMMIT and returns the live heap per row,
	// relative to before BEGIN, with the transaction open and committed.
	perRow := func(work func()) (open, committed int64) {
		base := liveHeap()
		mustExec(t, s, "BEGIN")
		work()
		open = (liveHeap() - base) / rows
		mustExec(t, s, "COMMIT")
		committed = (liveHeap() - base) / rows
		return open, committed
	}
	open, committed := perRow(func() {
		for i := int64(1); i <= rows; i++ {
			if _, err := ins.Exec(map[string]sqltypes.Value{
				"i": sqltypes.NewInt(i),
				"o": sqltypes.NewInt(i % 5000),
				"p": sqltypes.NewInt(i % 2000),
				"q": sqltypes.NewFloat(float64(i%50 + 1)),
				"e": sqltypes.NewFloat(float64(i * 7 % 100000)),
				"c": sqltypes.NewString(fmt.Sprintf("comment-%d", i)),
			}); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("INSERT: open %d B/row, committed %d B/row", open, committed)
	if open > committed+undoBytes {
		t.Errorf("open INSERT transaction holds %d B/row, committed %d: undo costs more than %d B/row",
			open, committed, undoBytes)
	}
	open, committed = perRow(func() { mustExec(t, s, "DELETE FROM li") })
	t.Logf("DELETE: open %d B/row, committed %d B/row", open, committed)
	if open > committed+undoBytes {
		t.Errorf("open DELETE transaction holds %d B/row, committed %d: undo costs more than %d B/row",
			open, committed, undoBytes)
	}
	runtime.KeepAlive(e)
}
