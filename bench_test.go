package sqlcm

// Micro-benchmarks of the monitoring data structures, one family per
// claim (see DESIGN.md §3 for the experiment index):
//
//	A-LAT   BenchmarkLATConcurrent*      — §6.1 LAT latching under stress
//	A-AGE   BenchmarkAgingAggregates     — §4.3 aging vs. plain aggregates
//	A-EVICT BenchmarkLATEviction*        — §4.3 bounded vs. unbounded LATs
//	A-PAR   Benchmark*Parallel           — hot-path scaling across -cpu
//	A-MON   BenchmarkMonitoredPointRead  — §2.1 what the bench rule set costs a point read
//	A-TPL   BenchmarkAdhocRange          — §4.2 an ad-hoc statement on its template's plan
//	A-DML   BenchmarkPointUpdate         — a prepared UPDATE on its compiled write
//	A-LOAD  BenchmarkTxnInsert           — a prepared INSERT in an open transaction
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
	"sqlcm/internal/monitor"
	"sqlcm/internal/plan"
	"sqlcm/internal/rules"
	"sqlcm/internal/server"
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
func (nullEnv) LATVersion() uint64                        { return 0 }
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
		infos[i] = &engine.QueryInfo{Logical: l, Physical: p, Sigs: new(engine.SigSlot)}
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

const benchLineitems = 2000

// monitoredDB opens a DB loaded by workload.Setup with the bench rule set
// installed.
func monitoredDB(tb testing.TB) *DB {
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
	if _, err := workload.Setup(db.Engine(), workload.Config{
		Lineitems: benchLineitems, ShortQueries: 1, JoinQueries: 1, Seed: 1,
	}); err != nil {
		tb.Fatal(err)
	}
	if err := db.LoadRuleSet(string(src)); err != nil {
		tb.Fatal(err)
	}
	return db
}

// monitoredPointRead returns a monitored DB and one prepared point SELECT
// per call of the returned function.
func monitoredPointRead(tb testing.TB) (*DB, func()) {
	tb.Helper()
	db := monitoredDB(tb)
	p, err := db.Session("bench", "bench").Prepare("SELECT l_quantity, l_extendedprice FROM lineitem WHERE l_id = @key")
	if err != nil {
		tb.Fatal(err)
	}
	params := map[string]sqltypes.Value{"key": sqltypes.NewInt(1)}
	key := int64(0)
	return db, func() {
		key = key%benchLineitems + 1
		params["key"] = sqltypes.NewInt(key)
		if res, err := p.Exec(params); err != nil || len(res.Rows) != 1 {
			tb.Fatalf("point read %d: %v", key, err)
		}
	}
}

// TestMonitoredPointReadAllocs pins a point read's allocations with the
// monitor suspended (6, 8 while its scan decoded every column into a row of
// its own) and live (8, pinned at 9: 17 under -race, whose pool drops
// rebuild the tree). The rule set adds one Query and one
// Transaction object and nothing else: no hex signature (the transaction's
// is cached by the tracker), no tracker map entry, and no group key for a
// top-k row the bounded LAT rejects. It added 5 while a global tracker
// formatted both transaction signatures per statement (45 before rule
// dispatch was made allocation-free).
func TestMonitoredPointReadAllocs(t *testing.T) {
	db, read := monitoredPointRead(t)
	pinAllocs(t, "monitored point read", 9, read)
	db.Monitor().Suspend()
	pinAllocs(t, "point read, monitor suspended", 6, read)
	db.Monitor().Resume()
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

// ---------------------------------------------------------------------------
// An ad-hoc statement in process: the repo benchmark's adhoc_compile_mon_on
// range SELECT, literals inline and no text repeated within a run of 4096,
// on the monitored DB above. Every text is a new one; the template is not.
// ---------------------------------------------------------------------------

// adhocRange returns a monitored DB and one new range SELECT text per call
// of the returned function.
func adhocRange(tb testing.TB) (*DB, func()) {
	tb.Helper()
	db := monitoredDB(tb)
	texts := make([]string, 4096)
	for i := range texts {
		lo := i*7%(benchLineitems-20) + 1
		texts[i] = fmt.Sprintf("SELECT l_id, l_quantity, l_extendedprice FROM lineitem WHERE l_id >= %d AND l_id < %d", lo, lo+1+i%20)
	}
	sess := db.Session("bench", "bench")
	i := 0
	return db, func() {
		sql := texts[i%len(texts)]
		i++
		if res, err := sess.Exec(sql, nil); err != nil || len(res.Rows) == 0 {
			tb.Fatalf("%s: %v", sql, err)
		}
	}
}

// pinAllocs fails t when one call of f, warmed up, allocates more than max
// times on average, plus raceAllocSlack under -race, whose random drops of
// pooled objects (operator trees, evaluation state) cost rebuilds.
func pinAllocs(t *testing.T, what string, max float64, f func()) {
	t.Helper()
	for i := 0; i < 200; i++ {
		f()
	}
	n := testing.AllocsPerRun(500, f)
	t.Logf("%.1f allocations per %s", n, what)
	if max += raceAllocSlack; n > max {
		t.Errorf("%.1f allocations per %s, want <= %.0f", n, what, max)
	}
}

// TestAdhocRangeAllocs pins the allocations of an ad-hoc statement whose
// template is cached: one lex and one lookup instead of a parse, a plan and
// a signature computation, and the template's pooled operator tree instead
// of a build. 11 here, whatever the 1 to 20 rows: the scan decodes the
// three projected columns of each row into one buffer and skips the other
// three, the result rows share one value slab, and the slab and the result
// slice are sized by the rows the tree's last execution returned. The pin
// leaves room for -race, whose pool drops rebuild the tree and regrow its
// buffers about once in four statements (21 to 22 there). 45 while every
// row was decoded whole into a row of its own, l_comment's string copied,
// and then projected into another; 128 while every execution built its
// tree, decoded strings twice and allocated a key per row; 230 when the
// plan cache was keyed on the raw text.
func TestAdhocRangeAllocs(t *testing.T) {
	_, query := adhocRange(t)
	pinAllocs(t, "ad-hoc range SELECT", 15, query)
}

// BenchmarkAdhocRange reports one ad-hoc range SELECT, monitored.
func BenchmarkAdhocRange(b *testing.B) {
	_, query := adhocRange(b)
	for i := 0; i < 200; i++ {
		query()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query()
	}
}

// ---------------------------------------------------------------------------
// What the engine alone costs one prepared statement: the repo benchmark's
// point read and the oltp workload's UPDATE, on the monitored DB above with
// the monitor suspended.
// ---------------------------------------------------------------------------

// suspendedPrepared prepares sql on a monitored DB, suspends the monitor and
// returns one execution per call, @key cycling over the lineitems and @d 1.
// Each execution must touch exactly one row.
func suspendedPrepared(tb testing.TB, sql string) func() {
	tb.Helper()
	db := monitoredDB(tb)
	db.Monitor().Suspend()
	p, err := db.Session("bench", "bench").Prepare(sql)
	if err != nil {
		tb.Fatal(err)
	}
	params := map[string]sqltypes.Value{"d": sqltypes.NewInt(1)}
	key := int64(0)
	return func() {
		key = key%benchLineitems + 1
		params["key"] = sqltypes.NewInt(key)
		if res, err := p.Exec(params); err != nil || res.Affected != 1 {
			tb.Fatalf("%s @key=%d: %v", sql, key, err)
		}
	}
}

const (
	pointReadSQL   = "SELECT l_quantity, l_extendedprice FROM lineitem WHERE l_id = @key"
	pointUpdateSQL = "UPDATE lineitem SET l_quantity = l_quantity + @d WHERE l_id = @key"
)

// TestPointReadAllocs pins what the engine alone allocates for a prepared
// point read: 6, 8 while its scan decoded every column into a row of its
// own, 9 while every statement allocated its execution context, 34 while
// every execution built its operator tree and cursor and encoded its key
// bounds into new slices.
func TestPointReadAllocs(t *testing.T) {
	pinAllocs(t, "prepared point read", 6, suspendedPrepared(t, pointReadSQL))
}

// TestPointUpdateAllocs pins the same for a point UPDATE: 17, 20 while every
// statement allocated its execution context and an undo closure, 56 while
// every execution compiled its access path and SET list, the row record
// grew by appends and both index keys of each index were allocated to be
// compared.
func TestPointUpdateAllocs(t *testing.T) {
	pinAllocs(t, "prepared point UPDATE", 28, suspendedPrepared(t, pointUpdateSQL))
}

// raceAllocSlack is the allocation pins' allowance under -race (set in
// race_test.go).
var raceAllocSlack float64

// BenchmarkPointUpdate reports one prepared point UPDATE with the monitor
// suspended: the write path (collect, version push, index check, commit).
func BenchmarkPointUpdate(b *testing.B) {
	update := suspendedPrepared(b, pointUpdateSQL)
	for i := 0; i < 200; i++ {
		update()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		update()
	}
}

// ---------------------------------------------------------------------------
// The same point read over the wire: the repo benchmark's point_read_mon_off
// on loopback, client and server in this process, so an allocation count
// covers both ends of the codec.
// ---------------------------------------------------------------------------

// wireClient serves the monitored DB, monitor suspended, on loopback and
// returns a client connected to it.
func wireClient(tb testing.TB) *server.Client {
	tb.Helper()
	db := monitoredDB(tb)
	db.Monitor().Suspend()
	srv, err := server.New(server.Config{Addr: "127.0.0.1:0", NewSession: db.RemoteSession})
	if err != nil {
		tb.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Shutdown(5 * time.Second) }) //nolint:errcheck
	cli, err := server.Dial(srv.Addr().String(), server.ClientConfig{User: "bench", App: "bench"})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { cli.Close() }) //nolint:errcheck
	return cli
}

// wirePointRead returns one prepared point SELECT over the wire per call.
func wirePointRead(tb testing.TB) func() {
	tb.Helper()
	cli := wireClient(tb)
	if err := cli.Prepare("pr", pointReadSQL, sqltypes.KindInt); err != nil {
		tb.Fatal(err)
	}
	key := int64(0)
	return func() {
		key = key%benchLineitems + 1
		if rows, err := cli.ExecPrepared("pr", sqltypes.NewInt(key)); err != nil || len(rows.Rows) != 1 {
			tb.Fatalf("wire point read %d: %v", key, err)
		}
	}
}

// TestWirePointReadAllocs pins a loopback round trip's allocations, client
// and server together: 14 per point read (16 while its scan decoded every
// column into a row of its own, 17 while every statement allocated its
// execution context, 47 while the codec allocated every
// message body and header and Bind every portal, parameter map and name
// list), 12 per BEGIN+COMMIT (30). What is left is the engine's statement
// work and the client's result (Rows, its slices, names and tag); the
// server's per-message path allocates nothing.
func TestWirePointReadAllocs(t *testing.T) {
	pinAllocs(t, "wire point read", 17, wirePointRead(t))
	cli := wireClient(t)
	pinAllocs(t, "wire BEGIN+COMMIT", 15, func() {
		for _, sql := range []string{"BEGIN", "COMMIT"} {
			if _, err := cli.Query(sql); err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
		}
	})
}

// BenchmarkWirePointRead reports one prepared point read over loopback.
func BenchmarkWirePointRead(b *testing.B) {
	read := wirePointRead(b)
	for i := 0; i < 200; i++ {
		read()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		read()
	}
}

// ---------------------------------------------------------------------------
// What the engine costs one row of a load: a prepared INSERT into a table of
// the repo benchmark's lineitem shape (its primary key and one secondary
// index) inside an open transaction, the statement the benchmark's setup
// runs 127 000 times.
// ---------------------------------------------------------------------------

// txnInsert opens a DB with an empty lineitem table, monitor suspended,
// begins a transaction that stays open, and returns one prepared INSERT of
// a new row per call: ascending l_id, scattered l_orderkey.
func txnInsert(tb testing.TB) func() {
	tb.Helper()
	db, err := Open(Config{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	db.Monitor().Suspend()
	sess := db.Session("loader", "bench")
	for _, sql := range []string{
		`CREATE TABLE lineitem (l_id INT PRIMARY KEY, l_orderkey INT, l_partkey INT,
			l_quantity FLOAT, l_extendedprice FLOAT, l_comment VARCHAR)`,
		"CREATE INDEX idx_l_orderkey ON lineitem (l_orderkey)",
		"BEGIN",
	} {
		if _, err := sess.Exec(sql, nil); err != nil {
			tb.Fatal(err)
		}
	}
	ins, err := sess.Prepare("INSERT INTO lineitem VALUES (@i, @o, @p, @q, @e, @c)")
	if err != nil {
		tb.Fatal(err)
	}
	params := map[string]sqltypes.Value{"c": sqltypes.NewString("comment")}
	i := int64(0)
	return func() {
		i++
		params["i"] = sqltypes.NewInt(i)
		params["o"] = sqltypes.NewInt(i * 7919 % 30000)
		params["p"] = sqltypes.NewInt(i % 2000)
		params["q"] = sqltypes.NewFloat(float64(i%50 + 1))
		params["e"] = sqltypes.NewFloat(float64(i * 7 % 100000))
		if res, err := ins.Exec(params); err != nil || res.Affected != 1 {
			tb.Fatalf("insert %d: %v", i, err)
		}
	}
}

// TestTxnInsertAllocs pins what the engine allocates for one row of a load:
// 2, the statement's QueryInfo and Result; the pin allows one more for the
// growth of the write log, the tree nodes and the version chunks. It was 11
// while every statement allocated its execution context and registered
// itself in an engine-wide map, and every row its record, its index keys,
// the list of trees to unwind and an undo closure.
func TestTxnInsertAllocs(t *testing.T) {
	pinAllocs(t, "prepared INSERT in an open transaction", 3, txnInsert(t))
}

// BenchmarkTxnInsert reports one prepared INSERT in an open transaction.
func BenchmarkTxnInsert(b *testing.B) {
	insert := txnInsert(b)
	for i := 0; i < 200; i++ {
		insert()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		insert()
	}
}
