package exec

import (
	"fmt"
	"testing"

	"sqlcm/internal/sqltypes"
	"sqlcm/internal/storage"
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

// TestIndexCursorSurvivesLeafShift: an index cursor copies the keys it
// collects, because the tree shifts a leaf's key bytes in place when an
// entry goes in before them. The cursor is opened on a range, a smaller key
// then goes into the same leaf (with room made for it, so the leaf's array
// is not reallocated), and the cursor must still return the rows of its
// range: a cursor that kept the tree's key slices would read the shifted
// bytes, take every entry for stale and return nothing.
func TestIndexCursorSurvivesLeafShift(t *testing.T) {
	h := newHarness(t)
	h.mustExec("CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR)", nil)
	for i := 10; i < 20; i++ {
		h.mustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, 'r%d')", i, i), nil)
	}
	ts, err := h.reg.Store("t")
	if err != nil {
		t.Fatal(err)
	}
	pk := ts.Meta.Indexes()[0]
	bt := ts.Indexes()[pk.Name]
	key := func(i int64) []byte { return sqltypes.NewInt(i).Encode(nil) }
	const bogus = storage.RID(1 << 40)
	if err := bt.Insert(key(1), bogus); err != nil {
		t.Fatal(err)
	}
	bt.Delete(key(1), bogus)

	c := &Cursor{}
	c.reset(ts, storage.CurrentSnapshot(0), pk)
	if err := c.seek(keyRange{lo: key(12), hi: key(17), loIncl: true, hiIncl: true}); err != nil {
		t.Fatal(err)
	}
	if err := bt.Insert(key(1), bogus); err != nil {
		t.Fatal(err)
	}
	var got []int64
	for {
		_, row, err := c.Next(&Ctx{})
		if err != nil {
			t.Fatal(err)
		}
		if row == nil {
			break
		}
		got = append(got, row[0].Int())
	}
	if want := []int64{12, 13, 14, 15, 16, 17}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("cursor returned ids %v after the leaf shifted, want %v", got, want)
	}
}
