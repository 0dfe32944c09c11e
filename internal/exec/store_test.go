package exec

import (
	"fmt"
	"testing"

	"sqlcm/internal/sqltypes"
)

// TestAddIndexBuildsAfterScan: AddIndex populates the B+tree from a
// whole-table cursor, which materializes the visible rows before the first
// Insert, so no storage latch is held while the tree is written
// (index.btree must stay a root class of the declared lock hierarchy).
// Functionally an index built over existing rows must see every row,
// including rows spanning multiple pages, and duplicate keys on a unique
// index must surface as a build error rather than a partial index.
func TestAddIndexBuildsAfterScan(t *testing.T) {
	h := newHarness(t)
	h.mustExec("CREATE TABLE t (id INT PRIMARY KEY, grp INT, pad STRING)", nil)

	// Enough rows with wide padding to span several heap pages.
	const n = 500
	pad := make([]byte, 200)
	for i := range pad {
		pad[i] = 'x'
	}
	for i := 0; i < n; i++ {
		h.mustExec(fmt.Sprintf("INSERT INTO t (id, grp, pad) VALUES (%d, %d, '%s')", i, i%7, pad), nil)
	}

	h.mustExec("CREATE INDEX t_grp ON t (grp)", nil)

	ts, err := h.reg.Store("t")
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	bt, ok := ts.Indexes()["t_grp"]
	if !ok {
		t.Fatalf("index t_grp not registered")
	}

	// Every row must be reachable through the freshly built index.
	total := 0
	for g := 0; g < 7; g++ {
		key := sqltypes.EncodeKey(sqltypes.NewInt(int64(g)))
		total += len(bt.GetAll(key))
	}
	if total != n {
		t.Fatalf("index covers %d rows, want %d", total, n)
	}

	// A unique index over a column with duplicates must fail the build
	// and must not be registered.
	if _, _, err := h.exec("CREATE UNIQUE INDEX t_grp_u ON t (grp)", nil); err == nil {
		t.Fatalf("unique index over duplicate keys built without error")
	}
	if _, ok := ts.Indexes()["t_grp_u"]; ok {
		t.Fatalf("failed unique index was registered anyway")
	}
}
