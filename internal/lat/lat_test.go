package lat

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"sqlcm/internal/sqltypes"
)

// obj builds an AttrGetter from a map.
func obj(m map[string]sqltypes.Value) AttrGetter {
	return func(attr string) (sqltypes.Value, bool) {
		v, ok := m[attr]
		return v, ok
	}
}

func queryObj(sig string, dur float64) AttrGetter {
	return obj(map[string]sqltypes.Value{
		"Logical_Signature": sqltypes.NewString(sig),
		"Duration":          sqltypes.NewFloat(dur),
		"Query_Text":        sqltypes.NewString("SELECT … -- " + sig),
	})
}

func durationSpec() Spec {
	return Spec{
		Name:    "Duration_LAT",
		GroupBy: []string{"Logical_Signature"},
		Aggs: []AggCol{
			{Func: Avg, Attr: "Duration", Name: "Avg_Duration"},
			{Func: Count, Name: "N"},
			{Func: Max, Attr: "Duration", Name: "Max_Duration"},
			{Func: First, Attr: "Query_Text", Name: "Sample_Text"},
		},
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{},                                       // no name
		{Name: "x"},                              // no group by
		{Name: "x", GroupBy: []string{"a", "a"}}, // dup col
		{Name: "x", GroupBy: []string{"a"}, Aggs: []AggCol{{Func: Sum, Name: "s"}}},                         // SUM without attr
		{Name: "x", GroupBy: []string{"a"}, Aggs: []AggCol{{Func: Count, Name: "a"}}},                       // dup name
		{Name: "x", GroupBy: []string{"a"}, OrderBy: []OrderKey{{Col: "nope"}}},                             // bad order col
		{Name: "x", GroupBy: []string{"a"}, MaxRows: 5},                                                     // limit w/o order
		{Name: "x", GroupBy: []string{"a"}, Aggs: []AggCol{{Func: Avg, Attr: "v", Name: "m", Aging: true}}}, // aging w/o window
	}
	for i, s := range bad {
		if _, err := New(s); err == nil {
			t.Errorf("spec %d should be rejected", i)
		}
	}
	if _, err := New(durationSpec()); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
}

func TestGroupingAndAggregates(t *testing.T) {
	tab, err := New(durationSpec())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if err := tab.Insert(queryObj("sigA", float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if err := tab.Insert(queryObj("sigB", 100)); err != nil {
			t.Fatal(err)
		}
	}
	if tab.Len() != 2 {
		t.Fatalf("groups: %d", tab.Len())
	}
	vals, ok := tab.Lookup([]sqltypes.Value{sqltypes.NewString("sigA")})
	if !ok {
		t.Fatal("sigA missing")
	}
	// Columns: Logical_Signature, Avg_Duration, N, Max_Duration, Sample_Text.
	if vals[1].Float() != 5.5 {
		t.Fatalf("avg: %v", vals[1])
	}
	if vals[2].Int() != 10 {
		t.Fatalf("count: %v", vals[2])
	}
	if vals[3].Float() != 10 {
		t.Fatalf("max: %v", vals[3])
	}
	if vals[4].Str() != "SELECT … -- sigA" {
		t.Fatalf("first text: %v", vals[4])
	}
	if _, ok := tab.Lookup([]sqltypes.Value{sqltypes.NewString("nope")}); ok {
		t.Fatal("phantom group")
	}
}

func TestStdevFirstLast(t *testing.T) {
	tab, err := New(Spec{
		Name:    "t",
		GroupBy: []string{"g"},
		Aggs: []AggCol{
			{Func: Stdev, Attr: "v", Name: "sd"},
			{Func: First, Attr: "v", Name: "f"},
			{Func: Last, Attr: "v", Name: "l"},
			{Func: Min, Attr: "v", Name: "mn"},
			{Func: Sum, Attr: "v", Name: "s"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		tab.Insert(obj(map[string]sqltypes.Value{"g": sqltypes.NewInt(1), "v": sqltypes.NewFloat(v)})) //nolint:errcheck
	}
	vals, _ := tab.Lookup([]sqltypes.Value{sqltypes.NewInt(1)})
	sd := vals[1].Float()
	if math.Abs(sd-math.Sqrt(32.0/7.0)) > 1e-9 {
		t.Fatalf("stdev: %v", sd)
	}
	if vals[2].Float() != 2 || vals[3].Float() != 9 {
		t.Fatalf("first/last: %v %v", vals[2], vals[3])
	}
	if vals[4].Float() != 2 || vals[5].Float() != 40 {
		t.Fatalf("min/sum: %v %v", vals[4], vals[5])
	}
}

func topKSpec(k int) Spec {
	return Spec{
		Name:    "TopK",
		GroupBy: []string{"ID"},
		Aggs: []AggCol{
			{Func: Max, Attr: "Duration", Name: "Duration"},
			{Func: First, Attr: "Query_Text", Name: "Text"},
		},
		OrderBy: []OrderKey{{Col: "Duration", Desc: true}},
		MaxRows: k,
	}
}

func TestTopKEviction(t *testing.T) {
	tab, err := New(topKSpec(10))
	if err != nil {
		t.Fatal(err)
	}
	var evicted []EvictedRow
	tab.SetOnEvict(func(r EvictedRow) { evicted = append(evicted, r) })
	// Insert 100 queries with distinct ids and durations 1..100.
	for i := 1; i <= 100; i++ {
		err := tab.Insert(obj(map[string]sqltypes.Value{
			"ID":         sqltypes.NewInt(int64(i)),
			"Duration":   sqltypes.NewFloat(float64(i)),
			"Query_Text": sqltypes.NewString(fmt.Sprintf("q%d", i)),
		}))
		if err != nil {
			t.Fatal(err)
		}
	}
	if tab.Len() != 10 {
		t.Fatalf("rows: %d", tab.Len())
	}
	rows := tab.Rows()
	if len(rows) != 10 {
		t.Fatalf("snapshot rows: %d", len(rows))
	}
	// Expect durations 100..91 in descending order.
	for i, r := range rows {
		want := float64(100 - i)
		if r[1].Float() != want {
			t.Fatalf("row %d: duration %v want %v", i, r[1], want)
		}
	}
	if len(evicted) != 90 {
		t.Fatalf("evictions: %d", len(evicted))
	}
	if tab.Stats().Evictions != 90 {
		t.Fatalf("stats evictions: %d", tab.Stats().Evictions)
	}
	// Evicted rows expose the declared columns.
	if len(evicted[0].Columns) != 3 || evicted[0].Columns[1] != "Duration" {
		t.Fatalf("evicted row columns: %v", evicted[0].Columns)
	}
}

func TestAscendingEvictionKeepsSmallest(t *testing.T) {
	tab, err := New(Spec{
		Name:    "BottomK",
		GroupBy: []string{"ID"},
		Aggs:    []AggCol{{Func: Max, Attr: "V", Name: "V"}},
		OrderBy: []OrderKey{{Col: "V", Desc: false}},
		MaxRows: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		tab.Insert(obj(map[string]sqltypes.Value{ //nolint:errcheck
			"ID": sqltypes.NewInt(int64(i)), "V": sqltypes.NewInt(int64(i)),
		}))
	}
	rows := tab.Rows()
	if len(rows) != 3 || rows[0][1].Int() != 1 || rows[2][1].Int() != 3 {
		t.Fatalf("ascending keep: %v", rows)
	}
}

func TestMaxBytesEviction(t *testing.T) {
	tab, err := New(Spec{
		Name:     "mem",
		GroupBy:  []string{"ID"},
		Aggs:     []AggCol{{Func: First, Attr: "Text", Name: "Text"}},
		OrderBy:  []OrderKey{{Col: "ID", Desc: true}},
		MaxBytes: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		tab.Insert(obj(map[string]sqltypes.Value{ //nolint:errcheck
			"ID":   sqltypes.NewInt(int64(i)),
			"Text": sqltypes.NewString(fmt.Sprintf("%0200d", i)),
		}))
	}
	st := tab.Stats()
	if st.MemBytes > 4096+600 { // one row of slack during insertion
		t.Fatalf("memory not bounded: %d", st.MemBytes)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions under byte limit")
	}
}

func TestGroupUpdateReordersHeap(t *testing.T) {
	tab, err := New(topKSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	insert := func(id int, d float64) {
		tab.Insert(obj(map[string]sqltypes.Value{ //nolint:errcheck
			"ID":         sqltypes.NewInt(int64(id)),
			"Duration":   sqltypes.NewFloat(d),
			"Query_Text": sqltypes.NewString("q"),
		}))
	}
	insert(1, 10)
	insert(2, 20)
	insert(3, 30)
	// Group 1 grows to 100 (MAX agg), becoming most important.
	insert(1, 100)
	insert(4, 25) // should evict group 2 (20), not group 1
	rows := tab.Rows()
	got := map[int64]bool{}
	for _, r := range rows {
		got[r[0].Int()] = true
	}
	if !got[1] || !got[3] || !got[4] || got[2] {
		t.Fatalf("kept groups: %v", got)
	}
}

func TestReset(t *testing.T) {
	tab, _ := New(durationSpec())
	tab.Insert(queryObj("a", 1)) //nolint:errcheck
	tab.Reset()
	if tab.Len() != 0 {
		t.Fatal("reset did not clear")
	}
	if tab.Stats().MemBytes != 0 {
		t.Fatal("memory not cleared")
	}
	// Usable after reset.
	if err := tab.Insert(queryObj("a", 1)); err != nil {
		t.Fatal(err)
	}
}

func TestMissingGroupAttrFails(t *testing.T) {
	tab, _ := New(durationSpec())
	err := tab.Insert(obj(map[string]sqltypes.Value{"Duration": sqltypes.NewFloat(1)}))
	if err == nil {
		t.Fatal("missing grouping attribute should fail")
	}
}

func TestAgingAggregates(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	tab, err := New(Spec{
		Name:    "aging",
		GroupBy: []string{"g"},
		Aggs: []AggCol{
			{Func: Avg, Attr: "v", Name: "avg_all"},
			{Func: Avg, Attr: "v", Name: "avg_win", Aging: true},
			{Func: Count, Attr: "v", Name: "n_win", Aging: true},
			{Func: Max, Attr: "v", Name: "max_win", Aging: true},
		},
		AgingWindow: 60 * time.Second,
		AgingBlock:  10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	tab.SetClock(clock)
	ins := func(v float64) {
		tab.Insert(obj(map[string]sqltypes.Value{ //nolint:errcheck
			"g": sqltypes.NewInt(1), "v": sqltypes.NewFloat(v),
		}))
	}
	ins(100) // t=1000
	now = now.Add(30 * time.Second)
	ins(10) // t=1030
	now = now.Add(10 * time.Second)
	ins(20) // t=1040

	vals, _ := tab.Lookup([]sqltypes.Value{sqltypes.NewInt(1)})
	// Columns: g, avg_all, avg_win, n_win, max_win.
	if vals[1].Float() != (100+10+20)/3.0 {
		t.Fatalf("avg_all: %v", vals[1])
	}
	if vals[3].Int() != 3 {
		t.Fatalf("n_win before aging: %v", vals[3])
	}
	// Advance so the first value (t=1000) ages out of the 60s window.
	now = now.Add(35 * time.Second) // now=1075; cutoff=1015; block [1000,1010) expired
	vals, _ = tab.Lookup([]sqltypes.Value{sqltypes.NewInt(1)})
	if vals[3].Int() != 2 {
		t.Fatalf("n_win after aging: %v", vals[3])
	}
	if vals[2].Float() != 15 {
		t.Fatalf("avg_win after aging: %v", vals[2])
	}
	if vals[4].Float() != 20 {
		t.Fatalf("max_win after aging: %v", vals[4])
	}
	// avg_all unaffected by aging.
	if vals[1].Float() != (100+10+20)/3.0 {
		t.Fatalf("avg_all changed: %v", vals[1])
	}
	// Advance far: window empties.
	now = now.Add(10 * time.Minute)
	vals, _ = tab.Lookup([]sqltypes.Value{sqltypes.NewInt(1)})
	if vals[3].Int() != 0 || !vals[2].IsNull() {
		t.Fatalf("window should be empty: n=%v avg=%v", vals[3], vals[2])
	}
}

func TestAgingBlockBound(t *testing.T) {
	// Storage stays bounded at ~t/Δ+1 blocks regardless of insert volume.
	now := time.Unix(0, 0)
	tab, _ := New(Spec{
		Name:        "b",
		GroupBy:     []string{"g"},
		Aggs:        []AggCol{{Func: Count, Attr: "v", Name: "n", Aging: true}},
		AgingWindow: 100 * time.Second,
		AgingBlock:  10 * time.Second,
	})
	tab.SetClock(func() time.Time { return now })
	for i := 0; i < 10000; i++ {
		now = now.Add(37 * time.Millisecond)
		tab.Insert(obj(map[string]sqltypes.Value{ //nolint:errcheck
			"g": sqltypes.NewInt(1), "v": sqltypes.NewInt(1),
		}))
	}
	// 10000 * 37ms = 370s of inserts; only ~100s/10s + 2 blocks may remain,
	// far below the footprint of 10000 retained observations.
	st := tab.Stats()
	if st.MemBytes > 8192 {
		t.Fatalf("aging memory grew unbounded: %d", st.MemBytes)
	}
}

// TestLookupColumnMatchesRow reads every output column of a group through
// LookupColumn, as rule conditions do, and compares it with the
// materialized row; a missing group reports false.
func TestLookupColumnMatchesRow(t *testing.T) {
	tab, _ := New(durationSpec())
	tab.Insert(queryObj("a", 10)) //nolint:errcheck
	tab.Insert(queryObj("a", 30)) //nolint:errcheck
	row, ok := tab.LookupByGetter(queryObj("a", 0))
	if !ok {
		t.Fatal("group a missing")
	}
	var in Instant
	group := []sqltypes.Value{sqltypes.NewString("a")}
	for i, col := range tab.Spec().Columns() {
		got, found := tab.LookupColumn(&in, group, tab.ColumnIndex(col))
		if !found || sqltypes.Compare(got, row[i]) != 0 {
			t.Errorf("LookupColumn(%s) = %v, %v; row has %v", col, got, found, row[i])
		}
	}
	other := []sqltypes.Value{sqltypes.NewString("b")}
	if v, found := tab.LookupColumn(&in, other, 1); found || !v.IsNull() {
		t.Errorf("LookupColumn of a missing group = %v, %v", v, found)
	}
	if _, ok := tab.LookupByGetter(obj(nil)); ok {
		t.Error("LookupByGetter without the grouping attribute reported ok")
	}
}

func TestRestoreRoundTrip(t *testing.T) {
	tab, _ := New(durationSpec())
	tab.Insert(queryObj("a", 10)) //nolint:errcheck
	tab.Insert(queryObj("a", 20)) //nolint:errcheck
	tab.Insert(queryObj("b", 5))  //nolint:errcheck
	rows := tab.Rows()

	restored, _ := New(durationSpec())
	if err := restored.Restore(rows); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 2 {
		t.Fatalf("restored groups: %d", restored.Len())
	}
	vals, ok := restored.Lookup([]sqltypes.Value{sqltypes.NewString("a")})
	// AVG resumes at its value, COUNT and MAX exactly.
	if !ok || vals[1].Float() != 15 || vals[2].Int() != 2 || vals[3].Float() != 20 {
		t.Fatalf("restored row: %v", vals)
	}
}

// An insert into an existing group allocates nothing: the key is encoded
// into a stack buffer and looked up without a copy (5 allocations with the
// striped table, 2 with the one-latch table before that).
func TestInsertIntoExistingGroupAllocs(t *testing.T) {
	for name, spec := range map[string]Spec{"unbounded": durationSpec(), "bounded": topKSpec(10)} {
		tab, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		get := obj(map[string]sqltypes.Value{
			"Logical_Signature": sqltypes.NewString("a"),
			"ID":                sqltypes.NewInt(1),
			"Duration":          sqltypes.NewFloat(10),
			"Query_Text":        sqltypes.NewString("SELECT 1"),
		})
		if err := tab.Insert(get); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() { tab.Insert(get) }); n != 0 { //nolint:errcheck
			t.Errorf("%s: %.0f allocations per insert into an existing group, want 0", name, n)
		}
	}
}

// TestIncrementalMemMatchesRecount checks the footprint inserts maintain
// incrementally against a full recount of every row, across aging blocks
// that age out, min/max/first/last values that grow and shrink, evictions
// under a byte limit and a restore.
func TestIncrementalMemMatchesRecount(t *testing.T) {
	spec := Spec{
		Name:    "mem",
		GroupBy: []string{"g"},
		Aggs: []AggCol{
			{Func: Min, Attr: "s", Name: "MinS"},
			{Func: Last, Attr: "s", Name: "LastS"},
			{Func: Avg, Attr: "v", Name: "AvgV", Aging: true},
			{Func: Max, Attr: "s", Name: "MaxS", Aging: true},
		},
		OrderBy:     []OrderKey{{Col: "AvgV", Desc: true}},
		MaxBytes:    8000,
		AgingWindow: 10 * time.Second,
		AgingBlock:  time.Second,
	}
	tab, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	tab.SetClock(func() time.Time { return now })
	r := rand.New(rand.NewSource(3))
	check := func(when string) {
		t.Helper()
		tab.mu.Lock()
		defer tab.mu.Unlock()
		var sum int64
		for _, row := range tab.groups {
			if m := row.memSize(); row.mem != m {
				t.Fatalf("%s: row %q accounts %d bytes, recount %d", when, row.key, row.mem, m)
			}
			sum += row.mem
		}
		if got := tab.mem; got != sum {
			t.Fatalf("%s: table accounts %d bytes, rows sum to %d", when, got, sum)
		}
	}
	for i := 0; i < 2000; i++ {
		now = now.Add(time.Duration(r.Intn(700)) * time.Millisecond)
		tab.Insert(obj(map[string]sqltypes.Value{ //nolint:errcheck
			"g": sqltypes.NewInt(int64(r.Intn(12))),
			"s": sqltypes.NewString(strings.Repeat("x", r.Intn(40))),
			"v": sqltypes.NewFloat(r.Float64()),
		}))
		if i%97 == 0 {
			check(fmt.Sprintf("insert %d", i))
		}
	}
	check("end")
	if tab.Stats().Evictions == 0 {
		t.Fatal("byte limit never evicted: the test does not cover eviction")
	}
	if err := tab.Restore(tab.Rows()); err != nil {
		t.Fatal(err)
	}
	check("restore")
}

func TestConcurrentInserts(t *testing.T) {
	tab, err := New(Spec{
		Name:    "conc",
		GroupBy: []string{"g"},
		Aggs: []AggCol{
			{Func: Count, Name: "n"},
			{Func: Sum, Attr: "v", Name: "s"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tab.Insert(obj(map[string]sqltypes.Value{ //nolint:errcheck
					"g": sqltypes.NewInt(int64(i % 10)),
					"v": sqltypes.NewInt(1),
				}))
			}
		}(g)
	}
	wg.Wait()
	if tab.Len() != 10 {
		t.Fatalf("groups: %d", tab.Len())
	}
	total := int64(0)
	for _, r := range tab.Rows() {
		total += r[1].Int()
		if r[2].Float() != float64(r[1].Int()) {
			t.Fatalf("sum != count for group %v", r[0])
		}
	}
	if total != goroutines*perG {
		t.Fatalf("lost inserts: %d", total)
	}
}

func TestConcurrentInsertsWithEviction(t *testing.T) {
	tab, err := New(topKSpec(16))
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				tab.Insert(obj(map[string]sqltypes.Value{ //nolint:errcheck
					"ID":         sqltypes.NewInt(int64(g*2000 + i)),
					"Duration":   sqltypes.NewFloat(float64(i % 500)),
					"Query_Text": sqltypes.NewString("q"),
				}))
			}
		}(g)
	}
	wg.Wait()
	if tab.Len() > 16 {
		t.Fatalf("size limit violated: %d", tab.Len())
	}
	st := tab.Stats()
	if st.Inserts != goroutines*2000 {
		t.Fatalf("inserts: %d", st.Inserts)
	}
}

func TestAggFuncNames(t *testing.T) {
	for _, f := range []AggFunc{Count, Sum, Avg, Min, Max, Stdev, First, Last} {
		got, err := AggFuncFromName(f.String())
		if err != nil || got != f {
			t.Errorf("round trip %v: %v %v", f, got, err)
		}
	}
	if _, err := AggFuncFromName("MEDIAN"); err == nil {
		t.Error("unknown func accepted")
	}
}
