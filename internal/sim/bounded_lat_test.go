package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"sqlcm/internal/lat"
	"sqlcm/internal/sqltypes"
)

// TestBoundedLATMatchesOracle drives bounded LATs and the naive OracleLAT
// with the same random inserts, drawn so that the ordering column ties
// often and groups recur: every insert must evict the same rows in the
// same order, and the tables must end with the same rows and the same
// counters. It is the safety net of the bounded table's early reject (a
// new group less important than the heap root never enters the table):
// rejected groups must still reach the eviction callback and be counted
// as inserted and evicted, and a tie with the root must evict the root.
//
// The oracle picks the oldest of tied victims, and the heap's choice among
// tied rows depends on its layout, so a spec whose ordering key can tie
// across rows either holds one row (the oldest tied row is the root) or
// breaks ties with the unique grouping column. The byte-bounded specs
// hold rows of one constant footprint R, so MaxBytes k·R + R/2 bounds them
// as MaxRows k bounds the oracle.
func TestBoundedLATMatchesOracle(t *testing.T) {
	maxD := []lat.AggCol{{Func: lat.Max, Attr: "Duration", Name: "D"}, {Func: lat.Count, Name: "N"}}
	minD := []lat.AggCol{{Func: lat.Min, Attr: "Duration", Name: "D"}, {Func: lat.Count, Name: "N"}}
	byD := []lat.OrderKey{{Col: "D", Desc: true}}
	byDThenID := []lat.OrderKey{{Col: "D", Desc: true}, {Col: "ID"}}
	rowBytes := constantRowBytes(t, maxD)
	cases := []struct {
		name     string
		aggs     []lat.AggCol
		order    []lat.OrderKey
		maxRows  int
		maxBytes int64
		oracle   int // the oracle's MaxRows
	}{
		{"top1 ties", maxD, byD, 1, 0, 1},
		{"top5 ties broken by ID", maxD, byDThenID, 5, 0, 5},
		{"bottom4 ascending", minD, []lat.OrderKey{{Col: "D"}, {Col: "ID", Desc: true}}, 4, 0, 4},
		{"MaxBytes", maxD, byDThenID, 0, 5*rowBytes + rowBytes/2, 5},
		{"MaxRows and MaxBytes", maxD, byDThenID, 5, 5*rowBytes + rowBytes/2, 5},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 20; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				spec := lat.Spec{Name: "B", GroupBy: []string{"ID"}, Aggs: tc.aggs, OrderBy: tc.order,
					MaxRows: tc.maxRows, MaxBytes: tc.maxBytes}
				real, err := lat.New(spec)
				if err != nil {
					t.Fatal(err)
				}
				var evicted []lat.EvictedRow
				real.SetOnEvict(func(r lat.EvictedRow) { evicted = append(evicted, r) })
				ospec := spec
				ospec.MaxRows, ospec.MaxBytes = tc.oracle, 0
				oracle := NewOracleLAT(ospec)

				rng := rand.New(rand.NewSource(seed))
				var want lat.Stats
				now := time.Unix(0, 0)
				for i := 0; i < 300; i++ {
					id := sqltypes.NewInt(rng.Int63n(12))
					obj := map[string]sqltypes.Value{
						"ID":       id,
						"Duration": sqltypes.NewFloat(float64(rng.Intn(4))),
					}
					get := func(a string) (sqltypes.Value, bool) { v, ok := obj[a]; return v, ok }
					if _, ok := oracle.Lookup([]sqltypes.Value{id}, now); !ok {
						want.NewGroups++
					}
					wantEv, err := oracle.Insert(get, now)
					if err != nil {
						t.Fatal(err)
					}
					evicted = evicted[:0]
					if err := real.Insert(get); err != nil {
						t.Fatal(err)
					}
					want.Inserts++
					want.Evictions += int64(len(wantEv))
					if got, w := rowsText(evictedValues(evicted)), rowsText(evictedValues(wantEv)); got != w {
						t.Fatalf("insert %d (%v): evicted %s, oracle evicted %s", i, obj, got, w)
					}
				}
				if got, w := rowsText(real.Rows()), rowsText(oracle.Rows(now)); got != w {
					t.Fatalf("rows %s, oracle rows %s", got, w)
				}
				want.GroupCount = len(oracle.RowsMap(now))
				got := real.Stats()
				want.MemBytes = int64(want.GroupCount) * constantRowBytes(t, tc.aggs)
				if got != want {
					t.Fatalf("stats %+v, want %+v", got, want)
				}
			})
		}
	}
}

// constantRowBytes returns the footprint of one row of an unbounded table
// with aggs, checking that a second insert into the row leaves it as it
// was: the byte-bounded cases rely on every row having that one size.
func constantRowBytes(t *testing.T, aggs []lat.AggCol) int64 {
	t.Helper()
	tab, err := lat.New(lat.Spec{Name: "R", GroupBy: []string{"ID"}, Aggs: aggs})
	if err != nil {
		t.Fatal(err)
	}
	insert := func(d float64) {
		obj := map[string]sqltypes.Value{"ID": sqltypes.NewInt(1), "Duration": sqltypes.NewFloat(d)}
		if err := tab.Insert(func(a string) (sqltypes.Value, bool) { v, ok := obj[a]; return v, ok }); err != nil {
			t.Fatal(err)
		}
	}
	insert(1)
	one := tab.Stats().MemBytes
	insert(3)
	if again := tab.Stats().MemBytes; again != one {
		t.Fatalf("row footprint moved from %d to %d on a second insert", one, again)
	}
	return one
}

func evictedValues(rows []lat.EvictedRow) [][]sqltypes.Value {
	out := make([][]sqltypes.Value, len(rows))
	for i, r := range rows {
		out[i] = r.Values
	}
	return out
}

func rowsText(rows [][]sqltypes.Value) string {
	return fmt.Sprint(rows)
}
