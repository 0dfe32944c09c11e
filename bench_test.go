package sqlcm

// Micro-benchmarks of the monitoring data structures, one family per
// claim (see DESIGN.md §3 for the experiment index):
//
//	A-LAT   BenchmarkLATConcurrent*      — §6.1 LAT latching under stress
//	A-AGE   BenchmarkAgingAggregates     — §4.3 aging vs. plain aggregates
//	A-EVICT BenchmarkLATEviction*        — §4.3 bounded vs. unbounded LATs
//	A-PAR   Benchmark*Parallel           — hot-path scaling across -cpu
//	A-MON   BenchmarkMonitoredPointRead  — §2.1 what the bench rule set costs a point read
//
// The paper-shaped sweeps (E-SIG, E-FIG2, E-FIG3: signature cost, rule
// overhead, monitoring approaches) are produced by cmd/sqlcm-bench over
// internal/harness; end-to-end cost is the repo benchmark under bench/.

import (
	"fmt"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"sqlcm/internal/engine"
	"sqlcm/internal/event"
	"sqlcm/internal/lat"
	"sqlcm/internal/lockcheck"
	"sqlcm/internal/monitor"
	"sqlcm/internal/plan"
	"sqlcm/internal/rules"
	"sqlcm/internal/sqlparser"
	"sqlcm/internal/sqltypes"
	"sqlcm/internal/workload"
)

// benchEngine opens an engine with a small TPC-H-style database.
func benchEngine(b *testing.B, lineitems int) *engine.Engine {
	b.Helper()
	eng, err := engine.Open(engine.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { eng.Close() })
	if _, err := workload.Setup(eng, workload.Config{
		Lineitems: lineitems, ShortQueries: 1, JoinQueries: 1, Seed: 1,
	}); err != nil {
		b.Fatal(err)
	}
	return eng
}

// ---------------------------------------------------------------------------
// A-LAT (§6.1): LAT latching under concurrent insert stress
// ---------------------------------------------------------------------------

func benchLATConcurrent(b *testing.B, goroutines int) {
	table, err := lat.New(lat.Spec{
		Name:    "conc",
		GroupBy: []string{"Sig"},
		Aggs: []lat.AggCol{
			{Func: lat.Count, Name: "N"},
			{Func: lat.Avg, Attr: "Dur", Name: "AvgD"},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.SetParallelism(goroutines)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			sig := sqltypes.NewInt(int64(i % 64))
			dur := sqltypes.NewFloat(float64(i % 100))
			table.Insert(func(attr string) (sqltypes.Value, bool) { //nolint:errcheck
				switch attr {
				case "Sig":
					return sig, true
				case "Dur":
					return dur, true
				}
				return sqltypes.Null, false
			})
		}
	})
}

func BenchmarkLATConcurrent1(b *testing.B) { benchLATConcurrent(b, 1) }
func BenchmarkLATConcurrent4(b *testing.B) { benchLATConcurrent(b, 4) }
func BenchmarkLATConcurrent8(b *testing.B) { benchLATConcurrent(b, 8) }

// ---------------------------------------------------------------------------
// A-AGE (§4.3): aging vs. plain aggregates
// ---------------------------------------------------------------------------

func benchLATInsert(b *testing.B, aging bool) {
	spec := lat.Spec{
		Name:    "age",
		GroupBy: []string{"Sig"},
		Aggs: []lat.AggCol{
			{Func: lat.Avg, Attr: "Dur", Name: "AvgD", Aging: aging},
			{Func: lat.Count, Attr: "Dur", Name: "N", Aging: aging},
		},
	}
	if aging {
		spec.AgingWindow = time.Minute
		spec.AgingBlock = time.Second
	}
	table, err := lat.New(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sig := sqltypes.NewInt(int64(i % 100))
		dur := sqltypes.NewFloat(float64(i))
		table.Insert(func(attr string) (sqltypes.Value, bool) { //nolint:errcheck
			switch attr {
			case "Sig":
				return sig, true
			case "Dur":
				return dur, true
			}
			return sqltypes.Null, false
		})
	}
}

func BenchmarkPlainAggregates(b *testing.B) { benchLATInsert(b, false) }
func BenchmarkAgingAggregates(b *testing.B) { benchLATInsert(b, true) }

// ---------------------------------------------------------------------------
// A-EVICT (§4.3): insert cost at capacity (heap eviction) vs. unbounded
// ---------------------------------------------------------------------------

func benchLATEviction(b *testing.B, maxRows int) {
	spec := lat.Spec{
		Name:    "evict",
		GroupBy: []string{"ID"},
		Aggs:    []lat.AggCol{{Func: lat.Max, Attr: "Dur", Name: "Dur"}},
	}
	if maxRows > 0 {
		spec.OrderBy = []lat.OrderKey{{Col: "Dur", Desc: true}}
		spec.MaxRows = maxRows
	}
	table, err := lat.New(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := sqltypes.NewInt(int64(i))
		dur := sqltypes.NewFloat(float64(i % 1000))
		table.Insert(func(attr string) (sqltypes.Value, bool) { //nolint:errcheck
			switch attr {
			case "ID":
				return id, true
			case "Dur":
				return dur, true
			}
			return sqltypes.Null, false
		})
	}
}

func BenchmarkLATEvictionBounded100(b *testing.B) { benchLATEviction(b, 100) }
func BenchmarkLATEvictionUnbounded(b *testing.B)  { benchLATEviction(b, 0) }

// ---------------------------------------------------------------------------
// A-PAR: hot-path scaling benchmarks. Each exercises one structure of the
// monitoring hot path from b.RunParallel so throughput can be compared
// across -cpu values: the lock-free ones (event bus, rule index, signature
// cache) scale with cores, the one-latch LAT does not (DESIGN.md §5.1 says
// why that is the right trade for the measured traffic).
// ---------------------------------------------------------------------------

// nullEnv is a rules.Env that does nothing: dispatch benchmarks measure
// index lookup + condition evaluation, not action side effects.
type nullEnv struct{}

func (nullEnv) LAT(string) (*lat.Table, bool) { return nil, false }
func (nullEnv) Persist(string, []string, []sqltypes.Kind, []sqltypes.Value) error {
	return nil
}
func (nullEnv) SendMail(string, string) error             { return nil }
func (nullEnv) RunExternal(string) error                  { return nil }
func (nullEnv) CancelQuery(int64) bool                    { return false }
func (nullEnv) SetTimer(string, time.Duration, int) error { return nil }
func (nullEnv) ActiveQueryObjects() []monitor.Object      { return nil }
func (nullEnv) BlockPairObjects() [][2]monitor.Object     { return nil }

// nopAction fires without side effects.
type nopAction struct{}

func (nopAction) Run(rules.Env, *rules.Ctx) error { return nil }
func (nopAction) Describe() string                { return "nop" }

// BenchmarkEventDispatchParallel pushes Query.Commit events through the
// event bus into the rule engine's copy-on-write index from all procs.
// The read side takes zero locks, so this should scale with cores.
func BenchmarkEventDispatchParallel(b *testing.B) {
	e := rules.NewEngine(nullEnv{})
	cond, err := rules.ParseCondition("Query.Duration >= 0")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := e.AddRule(&rules.Rule{
			Name:      fmt.Sprintf("r%02d", i),
			Event:     monitor.EvQueryCommit,
			Condition: cond,
			Actions:   []rules.Action{nopAction{}},
		}); err != nil {
			b.Fatal(err)
		}
	}
	bus := event.NewBus(e)
	qi := &engine.QueryInfo{ID: 1, User: "bench", App: "bench", Text: "SELECT 1"}
	obj := monitor.NewQueryObject(qi, &monitor.Sigs{})
	obj.DurationAt = time.Millisecond
	objs := map[string]monitor.Object{monitor.ClassQuery: obj}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			bus.Dispatch(monitor.EvQueryCommit, objs)
		}
	})
	if bus.Total() != int64(b.N) {
		b.Fatalf("bus counted %d events, want %d", bus.Total(), b.N)
	}
}

// benchLATObserveParallel inserts into an unbounded LAT from all procs.
// hot=false gives every goroutine its own key range; hot=true forces every
// insert onto one group. Both meet on the table latch.
func benchLATObserveParallel(b *testing.B, hot bool) {
	table, err := lat.New(lat.Spec{
		Name:    "par",
		GroupBy: []string{"Sig"},
		Aggs: []lat.AggCol{
			{Func: lat.Count, Name: "N"},
			{Func: lat.Avg, Attr: "Dur", Name: "AvgD"},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	var nextRange atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		base := nextRange.Add(1) << 8
		i := 0
		for pb.Next() {
			i++
			key := int64(0) // hot: all procs hammer one group
			if !hot {
				key = base + int64(i%256) // distinct per-goroutine key range
			}
			sig := sqltypes.NewInt(key)
			dur := sqltypes.NewFloat(float64(i % 100))
			table.Insert(func(attr string) (sqltypes.Value, bool) { //nolint:errcheck
				switch attr {
				case "Sig":
					return sig, true
				case "Dur":
					return dur, true
				}
				return sqltypes.Null, false
			})
		}
	})
}

func BenchmarkLATObserveParallel(b *testing.B) {
	b.Run("DistinctKeys", func(b *testing.B) { benchLATObserveParallel(b, false) })
	b.Run("HotKey", func(b *testing.B) { benchLATObserveParallel(b, true) })
}

func sigBenchPlans(b *testing.B, eng *engine.Engine, sql string) (plan.Logical, plan.Physical) {
	b.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		b.Fatal(err)
	}
	l, err := plan.BuildLogical(stmt, eng.Catalog())
	if err != nil {
		b.Fatal(err)
	}
	p, err := plan.Optimize(l, eng.Catalog())
	if err != nil {
		b.Fatal(err)
	}
	return l, p
}

// BenchmarkSigCacheParallel hits the signature cache from all
// procs over a working set of pre-optimized plans (all hits after the
// first round; the interesting number is lookup throughput).
func BenchmarkSigCacheParallel(b *testing.B) {
	eng := benchEngine(b, 200)
	const plans = 32
	infos := make([]*engine.QueryInfo, plans)
	for i := range infos {
		sql := fmt.Sprintf("SELECT l_quantity FROM lineitem WHERE l_id = %d", i+1)
		l, p := sigBenchPlans(b, eng, sql)
		infos[i] = &engine.QueryInfo{Logical: l, Physical: p}
	}
	c := monitor.NewSigCache()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			c.For(infos[i%plans])
		}
	})
	// Every plan is computed at most once no matter how many procs raced.
	if n := c.Computes(); n > plans {
		b.Fatalf("Computes = %d, want <= %d", n, plans)
	}
}

// ---------------------------------------------------------------------------
// What monitoring costs one point read, in process: the repo benchmark's
// point_read workloads without the wire, on a small database with the
// benchmark's own rule set (bench/rules/bench.rules, read, not copied).
// ---------------------------------------------------------------------------

// monitoredPointRead opens a DB loaded by workload.Setup with the bench
// rule set installed and returns one prepared point SELECT per call of the
// returned function.
func monitoredPointRead(tb testing.TB) (*DB, func()) {
	tb.Helper()
	src, err := os.ReadFile("bench/rules/bench.rules")
	if err != nil {
		tb.Fatal(err)
	}
	db, err := Open(Config{RuleCheck: RuleCheckStrict})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	const lineitems = 2000
	if _, err := workload.Setup(db.Engine(), workload.Config{
		Lineitems: lineitems, ShortQueries: 1, JoinQueries: 1, Seed: 1,
	}); err != nil {
		tb.Fatal(err)
	}
	if err := db.LoadRuleSet(string(src)); err != nil {
		tb.Fatal(err)
	}
	p, err := db.Session("bench", "bench").Prepare("SELECT l_quantity, l_extendedprice FROM lineitem WHERE l_id = @key")
	if err != nil {
		tb.Fatal(err)
	}
	params := map[string]sqltypes.Value{"key": sqltypes.NewInt(1)}
	key := int64(0)
	return db, func() {
		key = key%lineitems + 1
		params["key"] = sqltypes.NewInt(key)
		if res, err := p.Exec(params); err != nil || len(res.Rows) != 1 {
			tb.Fatalf("point read %d: %v", key, err)
		}
	}
}

// TestMonitoredPointReadAllocs pins what the rule set adds to a point
// read's allocations (45 before rule dispatch was made allocation-free):
// one Query and one Transaction object, their two hex signatures, and
// little else.
func TestMonitoredPointReadAllocs(t *testing.T) {
	if lockcheck.Enabled {
		t.Skip("the lockdep build's instrumented latches allocate")
	}
	db, read := monitoredPointRead(t)
	for i := 0; i < 200; i++ {
		read() // warm the plan, signature and LAT state
	}
	live := testing.AllocsPerRun(500, read)
	db.Monitor().Suspend()
	off := testing.AllocsPerRun(500, read)
	db.Monitor().Resume()
	if added := live - off; added > 12 {
		t.Errorf("monitoring adds %.1f allocations per point read (%.1f live, %.1f suspended), want <= 12", added, live, off)
	}
}

// BenchmarkMonitoredPointRead reports one point read with the monitor
// suspended and live; the difference is the monitoring cost per statement.
func BenchmarkMonitoredPointRead(b *testing.B) {
	for _, on := range []bool{false, true} {
		name := "mon_off"
		if on {
			name = "mon_on"
		}
		b.Run(name, func(b *testing.B) {
			db, read := monitoredPointRead(b)
			if !on {
				db.Monitor().Suspend()
			}
			for i := 0; i < 200; i++ {
				read()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				read()
			}
		})
	}
}
