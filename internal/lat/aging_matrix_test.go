package lat

import (
	"math"
	"testing"
	"time"

	"sqlcm/internal/sqltypes"
)

// manualClock is a settable time source for aging-window tests.
type manualClock struct{ now time.Time }

func (c *manualClock) Now() time.Time { return c.now }

// matrixSpec declares one column per aggregate function, all aging, plus
// the two COUNT variants (presence vs non-NULL).
func matrixSpec() Spec {
	return Spec{
		Name:    "Matrix",
		GroupBy: []string{"g"},
		Aggs: []AggCol{
			{Func: Count, Name: "NAll", Aging: true},
			{Func: Count, Attr: "v", Name: "NVal", Aging: true},
			{Func: Sum, Attr: "v", Name: "S", Aging: true},
			{Func: Avg, Attr: "v", Name: "A", Aging: true},
			{Func: Min, Attr: "v", Name: "Mn", Aging: true},
			{Func: Max, Attr: "v", Name: "Mx", Aging: true},
			{Func: Stdev, Attr: "v", Name: "Sd", Aging: true},
			{Func: First, Attr: "v", Name: "F", Aging: true},
			{Func: Last, Attr: "v", Name: "L", Aging: true},
		},
		AgingWindow: 10 * time.Second,
		AgingBlock:  time.Second,
	}
}

// matrixTable builds the matrix LAT on a manual clock.
func matrixTable(t *testing.T) (*Table, *manualClock) {
	t.Helper()
	tab, err := New(matrixSpec())
	if err != nil {
		t.Fatal(err)
	}
	clk := &manualClock{now: time.Unix(1_700_000_000, 0).UTC()}
	tab.SetClock(clk.Now)
	return tab, clk
}

func matrixInsert(t *testing.T, tab *Table, v sqltypes.Value) {
	t.Helper()
	if err := tab.Insert(obj(map[string]sqltypes.Value{"g": sqltypes.NewInt(1), "v": v})); err != nil {
		t.Fatal(err)
	}
}

// matrixRow reads the single group's row.
func matrixRow(t *testing.T, tab *Table) []sqltypes.Value {
	t.Helper()
	row, ok := tab.Lookup([]sqltypes.Value{sqltypes.NewInt(1)})
	if !ok {
		t.Fatal("group missing")
	}
	return row
}

// Column indexes in the matrix row (group col at 0).
const (
	cNAll = 1 + iota
	cNVal
	cSum
	cAvg
	cMin
	cMax
	cStdev
	cFirst
	cLast
)

// expectRow compares a row against expectations; nil means NULL, int64 an
// exact integer, float64 an exact float.
func expectRow(t *testing.T, row []sqltypes.Value, want map[int]interface{}) {
	t.Helper()
	for idx, w := range want {
		got := row[idx]
		switch x := w.(type) {
		case nil:
			if !got.IsNull() {
				t.Errorf("col %d = %v, want NULL", idx, got)
			}
		case int64:
			if got.IsNull() || got.Int() != x {
				t.Errorf("col %d = %v, want %d", idx, got, x)
			}
		case float64:
			if got.IsNull() || math.Abs(got.Float()-x) > 1e-12 {
				t.Errorf("col %d = %v, want %v", idx, got, x)
			}
		default:
			t.Fatalf("bad expectation type %T", w)
		}
	}
}

// TestAgingMatrixSingleBlock: every aggregate over values landing in one
// block, including a NULL (NAll counts it, NVal and the numeric aggregates
// skip it, FIRST/LAST track presence).
func TestAgingMatrixSingleBlock(t *testing.T) {
	tab, _ := matrixTable(t)
	for _, v := range []sqltypes.Value{
		sqltypes.NewFloat(2), sqltypes.NewFloat(4), sqltypes.Null,
		sqltypes.NewFloat(4), sqltypes.NewFloat(5),
	} {
		matrixInsert(t, tab, v)
	}
	row := matrixRow(t, tab)
	expectRow(t, row, map[int]interface{}{
		cNAll: int64(5), cNVal: int64(4),
		cSum: 15.0, cAvg: 3.75, cMin: 2.0, cMax: 5.0,
		cFirst: 2.0, cLast: 5.0,
	})
	// stdev over {2,4,4,5}: sample variance = (4.75+0.0625*2+1.5625... ) —
	// compute via reference instead of a magic constant.
	if want := twoPass([]float64{2, 4, 4, 5}); math.Abs(row[cStdev].Float()-want) > 1e-12 {
		t.Errorf("stdev = %v, want %v", row[cStdev], want)
	}
}

// TestAgingMatrixEmptyWindow: once every block ages out, COUNTs read 0 and
// every other aggregate reads NULL.
func TestAgingMatrixEmptyWindow(t *testing.T) {
	tab, clk := matrixTable(t)
	for _, v := range []float64{1, 2, 3} {
		matrixInsert(t, tab, sqltypes.NewFloat(v))
	}
	clk.now = clk.now.Add(11*time.Second + time.Nanosecond) // window + block + ε
	row := matrixRow(t, tab)
	expectRow(t, row, map[int]interface{}{
		cNAll: int64(0), cNVal: int64(0),
		cSum: nil, cAvg: nil, cMin: nil, cMax: nil,
		cStdev: nil, cFirst: nil, cLast: nil,
	})
}

// TestAgingMatrixBoundaryExactlyOnEviction: a block expires only when
// start+Δ is strictly before now−window. At exactly now−window == start+Δ
// the block must still be counted; one nanosecond later it must be gone.
func TestAgingMatrixBoundaryExactlyOnEviction(t *testing.T) {
	tab, clk := matrixTable(t)
	t0 := clk.now // == t0.Truncate(block): block start is exactly t0
	matrixInsert(t, tab, sqltypes.NewFloat(7))

	// now − window == t0 + Δ exactly: survives.
	clk.now = t0.Add(11 * time.Second)
	expectRow(t, matrixRow(t, tab), map[int]interface{}{
		cNAll: int64(1), cNVal: int64(1), cSum: 7.0,
		cMin: 7.0, cMax: 7.0, cFirst: 7.0, cLast: 7.0,
	})

	// One nanosecond past the boundary: expired.
	clk.now = t0.Add(11*time.Second + time.Nanosecond)
	expectRow(t, matrixRow(t, tab), map[int]interface{}{
		cNAll: int64(0), cNVal: int64(0), cSum: nil,
		cMin: nil, cMax: nil, cFirst: nil, cLast: nil,
	})
}

// TestAgingMatrixPartialExpiry: blocks age out one at a time; the window
// aggregate follows the surviving suffix.
func TestAgingMatrixPartialExpiry(t *testing.T) {
	tab, clk := matrixTable(t)
	t0 := clk.now
	// One value per second: 1 at t0, 2 at t0+1s, ..., 5 at t0+4s.
	for i, v := range []float64{1, 2, 3, 4, 5} {
		clk.now = t0.Add(time.Duration(i) * time.Second)
		matrixInsert(t, tab, sqltypes.NewFloat(v))
	}
	// At t0+12s+ε the blocks at t0 and t0+1s have expired: {3,4,5} remain.
	clk.now = t0.Add(12*time.Second + time.Nanosecond)
	expectRow(t, matrixRow(t, tab), map[int]interface{}{
		cNAll: int64(3), cNVal: int64(3), cSum: 12.0, cAvg: 4.0,
		cMin: 3.0, cMax: 5.0, cFirst: 3.0, cLast: 5.0,
	})
}

// TestAgingMatrixFirstLastNull: FIRST/LAST are presence-based — a NULL
// observation is a real observation, so a leading or trailing NULL is
// reported as NULL, not skipped.
func TestAgingMatrixFirstLastNull(t *testing.T) {
	tab, _ := matrixTable(t)
	matrixInsert(t, tab, sqltypes.Null)
	matrixInsert(t, tab, sqltypes.NewFloat(3))
	matrixInsert(t, tab, sqltypes.Null)
	row := matrixRow(t, tab)
	expectRow(t, row, map[int]interface{}{
		cNAll: int64(3), cNVal: int64(1),
		cFirst: nil, cLast: nil, // both boundary observations are NULL
		cSum: 3.0, cMin: 3.0, cMax: 3.0,
	})
}

// TestMatrixRestoreFirstLast: FIRST/LAST (and the rest) after Restore from
// a checkpoint. Non-aging FIRST/LAST resume exactly; aging aggregates fold
// the checkpointed output back as a single observation in the current
// block.
func TestMatrixRestoreFirstLast(t *testing.T) {
	spec := Spec{
		Name:    "Chk",
		GroupBy: []string{"g"},
		Aggs: []AggCol{
			{Func: First, Attr: "v", Name: "F"},
			{Func: Last, Attr: "v", Name: "L"},
			{Func: Count, Name: "N"},
			{Func: First, Attr: "v", Name: "FA", Aging: true},
			{Func: Last, Attr: "v", Name: "LA", Aging: true},
		},
		AgingWindow: 10 * time.Second,
		AgingBlock:  time.Second,
	}
	clk := &manualClock{now: time.Unix(1_700_000_000, 0).UTC()}
	src, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	src.SetClock(clk.Now)
	for _, v := range []float64{8, 6, 9} {
		if err := src.Insert(obj(map[string]sqltypes.Value{"g": sqltypes.NewInt(1), "v": sqltypes.NewFloat(v)})); err != nil {
			t.Fatal(err)
		}
	}
	checkpoint := src.Rows()

	dst, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	dst.SetClock(clk.Now)
	if err := dst.Restore(checkpoint); err != nil {
		t.Fatal(err)
	}
	row, ok := dst.Lookup([]sqltypes.Value{sqltypes.NewInt(1)})
	if !ok {
		t.Fatal("restored group missing")
	}
	// F=8, L=9 resume exactly; N resumes; FA/LA were checkpointed as 8 and
	// 9 and fold back as single observations.
	expectRow(t, row, map[int]interface{}{
		1: 8.0, 2: 9.0, 3: int64(3), 4: 8.0, 5: 9.0,
	})

	// New observations continue from the restored state: LAST moves, FIRST
	// stays.
	if err := dst.Insert(obj(map[string]sqltypes.Value{"g": sqltypes.NewInt(1), "v": sqltypes.NewFloat(2)})); err != nil {
		t.Fatal(err)
	}
	row, _ = dst.Lookup([]sqltypes.Value{sqltypes.NewInt(1)})
	expectRow(t, row, map[int]interface{}{
		1: 8.0, 2: 2.0, 3: int64(4), 4: 8.0, 5: 2.0,
	})

	// The restored aging observation ages out like any other.
	clk.now = clk.now.Add(11*time.Second + time.Nanosecond)
	row, _ = dst.Lookup([]sqltypes.Value{sqltypes.NewInt(1)})
	expectRow(t, row, map[int]interface{}{
		1: 8.0, 2: 2.0, // non-aging unaffected by time
		4: nil, 5: nil,
	})
}
