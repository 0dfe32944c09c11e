package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"sqlcm/internal/engine"
	"sqlcm/internal/lat"
	"sqlcm/internal/lock"
	"sqlcm/internal/monitor"
	"sqlcm/internal/outbox"
	"sqlcm/internal/plan"
	"sqlcm/internal/signature"
	"sqlcm/internal/sqlparser"
	"sqlcm/internal/sqltypes"
)

// directCalls is how many statements of the stream the direct-call timings
// cover.
const directCalls = 10_000

// latCounters sums the counters of the rule set's LATs.
func (e *env) latCounters() (s lat.Stats) {
	mon := e.db.Monitor()
	for _, name := range mon.LATs() {
		if t, ok := mon.LAT(name); ok {
			st := t.Stats()
			s.Inserts += st.Inserts
			s.Evictions += st.Evictions
			s.MemBytes += st.MemBytes
		}
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runTraced sets the system up and reports the per-layer metrics: from the
// traced phases, and from direct calls into the layers the hook seam cannot
// tell apart. These are reported as the clock read them; only the untraced
// run's metrics are brought to reference host speed.
func runTraced(cfg config, res *result) error {
	e, err := setup(cfg)
	if err != nil {
		return err
	}
	defer e.close()
	e.tracedPhases(res, time.Duration(cfg.seconds*float64(time.Second)))
	e.check(res)
	return e.directTimings(res)
}

// tracedPhases spends the run's time on three phases and derives the
// per-layer metrics. A runs the workload as the untraced run does, B (when
// the workload is monitored) the same with the monitor suspended, and C
// with the timing hooks installed. A against B is what monitoring costs on
// this workload, A against C what tracing costs, and C gives the spans.
func (e *env) tracedPhases(res *result, total time.Duration) {
	mon, eng := e.db.Monitor(), e.db.Engine()
	monitored := e.cfg.wl.monitored
	dA, dB := total/3, total/5
	if !monitored {
		dB = 0
	}
	dC := total - dA - dB

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	a := e.measurePhase(dA, e.cfg.maxStmts, nil, nil)
	runtime.ReadMemStats(&ms1)
	nA := float64(max(a.stmts(), 1))
	res.set("runtime.allocs_per_stmt", float64(ms1.Mallocs-ms0.Mallocs)/nA, "count")
	res.set("runtime.alloc_bytes_per_stmt", float64(ms1.TotalAlloc-ms0.TotalAlloc)/nA, "bytes")
	res.set("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC), "count")
	res.set("runtime.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6, "ms")
	lat := a.all()
	p50 := quantile(lat, 0.5)
	stalls := 0
	for i := len(lat) - 1; i >= 0 && float64(lat[i]) > 10*p50; i-- {
		stalls++
	}
	res.set("client.stmt_p99_us", a.tailUs(0.99), "us")
	res.set("client.stmt_p999_us", quantile(lat, 0.999)/1e3, "us")
	res.set("client.stmt_max_us", quantile(lat, 1)/1e3, "us")
	res.set("client.stalls_over_10x_p50", float64(stalls), "count")

	overheadPct, overheadCPU := 0.0, 0.0
	if monitored {
		mon.Suspend()
		b := e.measurePhase(dB, e.cfg.maxStmts, nil, nil)
		overheadPct = 100 * (1 - ratio(a.throughput(), b.throughput()))
		overheadCPU = a.cpuUsPerStmt() - b.cpuUsPerStmt()
	}
	res.set("monitor.overhead_pct", overheadPct, "%")
	res.set("monitor.cpu_overhead_us_per_stmt", overheadCPU, "us")

	eng.SetHooks(e.traceHks)
	srv0, rules0, lat0 := e.srv.Stats(), mon.Rules().Stats(), e.latCounters()
	box0, pool0, pruned0 := mon.Outbox().Stats(), eng.Pool().Stats(), eng.MVCCStats().Pruned.Load()
	rows0 := e.rows()
	c := e.measurePhase(dC, e.cfg.maxStmts, e.tr, nil)
	if monitored {
		mon.Resume()
	} else {
		mon.Suspend()
	}
	srv1, rules1, lat1 := e.srv.Stats(), mon.Rules().Stats(), e.latCounters()
	box1, pool1, pruned1 := mon.Outbox().Stats(), eng.Pool().Stats(), eng.MVCCStats().Pruned.Load()
	drainStart := time.Now()
	e.db.Flush(10 * time.Second)
	drain := time.Since(drainStart)

	res.Samples = c.stmts()
	n := float64(max(c.stmts(), 1))
	var spanTotal, spanSelf, spanCount [numSpanNames]float64
	var clientSelf []int32
	var orphans, queries, misses, commits float64
	for _, ct := range e.tr.conns {
		ct.enter()
		for i := 0; i < numSpanNames; i++ {
			spanTotal[i] += float64(ct.total[i])
			spanSelf[i] += float64(ct.self[i])
			spanCount[i] += float64(ct.count[i])
		}
		clientSelf = append(clientSelf, ct.clientSelf...)
		orphans += float64(ct.orphans)
		queries += float64(ct.queries)
		misses += float64(ct.misses)
		commits += float64(ct.commits)
		ct.leave()
	}
	slices.Sort(clientSelf)
	us := func(ns float64) float64 { return ns / n / 1e3 }
	var selfSum float64
	for _, s := range spanSelf {
		selfSum += s
	}

	res.set("server.wire_us", quantile(clientSelf, 0.5)/1e3, "us")
	res.set("server.statements", float64(srv1.Statements-srv0.Statements), "count")
	res.set("server.errors", float64(srv1.Errors-srv0.Errors), "count")
	res.set("server.shed", float64(srv1.Shed-srv0.Shed), "count")
	res.set("server.cancelled", float64(srv1.Cancelled-srv0.Cancelled), "count")

	res.set("engine.stmt_us", us(spanTotal[spanCompile]+spanTotal[spanRun]), "us")
	res.set("engine.compile_us", us(spanTotal[spanCompile]), "us")
	res.set("engine.run_us", us(spanTotal[spanRun]), "us")
	res.set("engine.plan_cache_miss_ratio", ratio(misses, queries), "ratio")
	res.set("engine.plan_cache_entries", float64(eng.PlanCacheSize()), "count")
	res.set("exec.run_self_us", us(spanSelf[spanRun]), "us")
	res.set("exec.rows_per_stmt", ratio(float64(e.rows()-rows0), n), "count")

	res.set("event.hook_us", us(spanTotal[spanHook]), "us")
	res.set("event.self_us", us(spanSelf[spanHook]), "us")
	res.set("rules.dispatch_us", us(spanTotal[spanDispatch]), "us")
	events, shed, computes := 0.0, 0.0, 0.0
	if e.bus != nil {
		events, shed = float64(e.bus.Total()), float64(e.bus.ShedTotal())
		computes = float64(e.sigs.Computes())
	}
	res.set("event.events_per_stmt", events/n, "count")
	res.set("event.shed_total", shed, "count")
	res.set("monitor.sig_computes_per_stmt", computes/n, "count")
	evals := float64(rules1.Evaluations - rules0.Evaluations)
	res.set("rules.evals_per_stmt", evals/n, "count")
	res.set("rules.fired_per_eval", ratio(float64(rules1.Fired-rules0.Fired), evals), "ratio")
	res.set("rules.action_errs", float64(rules1.ActionErrs-rules0.ActionErrs), "count")
	res.set("rules.panics", float64(rules1.Panics-rules0.Panics), "count")

	inserts := float64(lat1.Inserts - lat0.Inserts)
	res.set("lat.inserts_per_stmt", inserts/n, "count")
	res.set("lat.evictions_per_insert", ratio(float64(lat1.Evictions-lat0.Evictions), inserts), "ratio")
	res.set("lat.mem_bytes", float64(lat1.MemBytes), "bytes")

	boxDelta := func(f func(outbox.KindStats) int64) float64 { return float64(box1.Total(f) - box0.Total(f)) }
	enq := boxDelta(func(k outbox.KindStats) int64 { return k.Enqueued })
	boxShed := boxDelta(func(k outbox.KindStats) int64 { return k.Shed })
	res.set("outbox.enqueued", enq, "count")
	res.set("outbox.shed_ratio", ratio(boxShed, enq+boxShed), "ratio")
	res.set("outbox.retries", boxDelta(func(k outbox.KindStats) int64 { return k.Retries }), "count")
	res.set("outbox.dead_letters", boxDelta(func(k outbox.KindStats) int64 { return k.DeadLetters }), "count")
	res.set("outbox.drain_ms", float64(drain.Microseconds())/1e3, "ms")

	res.set("lock.wait_us_per_stmt", us(spanTotal[spanLockWait]), "us")
	res.set("lock.waits_per_1k_stmts", 1000*spanCount[spanLockWait]/n, "count")
	res.set("txn.commits", commits, "count")

	fetches := float64(pool1.Hits - pool0.Hits + pool1.Misses - pool0.Misses)
	res.set("storage.pool_hit_ratio", ratio(float64(pool1.Hits-pool0.Hits), fetches), "ratio")
	res.set("storage.pool_evictions", float64(pool1.Evictions-pool0.Evictions), "count")
	res.set("storage.versions_pruned", float64(pruned1-pruned0), "count")
	res.set("storage.versions_retained", float64(eng.MVCCStats().Retained.Load()), "count")

	res.set("trace.overhead_pct", 100*(1-ratio(c.throughput(), a.throughput())), "%")
	res.set("trace.orphan_spans", orphans, "count")
	res.set("trace.self_sum_error_pct", 100*math.Abs(1-ratio(selfSum, spanTotal[spanClient])), "%")
}

// directTimings times the layers the hook seam cannot tell apart by calling
// their exported functions over the first directCalls statements of a
// stream no connection uses, and writes the trace file. It runs after the
// checks, because its in-process statements are not part of the workload.
func (e *env) directTimings(res *result) error {
	mon, eng := e.db.Monitor(), e.db.Engine()
	mon.Suspend()
	calls := directCalls
	if e.cfg.maxStmts > 0 {
		calls = min(calls, e.cfg.maxStmts)
	}
	st := newStream(e.cfg.wl.mix, e.cfg.sc, e.cfg.seed, len(e.conns), len(e.conns)+1)
	var ops []op
	for len(ops) < calls || len(st.pending) > 0 { // never stop inside a transaction
		ops = append(ops, st.next())
	}
	calls = len(ops)

	// Compile pipeline, stage by stage, on the statement texts.
	var parse, logical, optimize, sig time.Duration
	compiled := 0
	for _, o := range ops {
		text := o.text()
		t0 := time.Now()
		stmt, err := sqlparser.Parse(text)
		t1 := time.Now()
		parse += t1.Sub(t0)
		if err != nil {
			return fmt.Errorf("direct parse %q: %w", text, err)
		}
		if o.kind == opBegin || o.kind == opCommit {
			continue
		}
		l, err := plan.BuildLogical(stmt, eng.Catalog())
		t2 := time.Now()
		if err != nil {
			return fmt.Errorf("direct plan %q: %w", text, err)
		}
		p, err := plan.Optimize(l, eng.Catalog())
		t3 := time.Now()
		if err != nil {
			return fmt.Errorf("direct optimize %q: %w", text, err)
		}
		signature.Logical(l)
		signature.Physical(p)
		t4 := time.Now()
		logical += t2.Sub(t1)
		optimize += t3.Sub(t2)
		sig += t4.Sub(t3)
		compiled++
	}
	perCall := func(d time.Duration, n int) float64 { return ratio(float64(d.Nanoseconds())/1e3, float64(n)) }
	res.set("sqlparser.parse_us", perCall(parse, calls), "us")
	res.set("plan.logical_us", perCall(logical, compiled), "us")
	res.set("plan.optimize_us", perCall(optimize, compiled), "us")
	res.set("signature.compute_us", perCall(sig, compiled), "us")

	// The same statements executed in process: no wire, no hooks.
	sess := eng.NewSession("direct", "bench")
	defer sess.Close() //nolint:errcheck
	prepared := map[opKind]*engine.Prepared{}
	for _, k := range []opKind{opSelL, opSelO, opUpdL, opUpdO} {
		p, err := sess.Prepare(op{kind: k}.text())
		if err != nil {
			return fmt.Errorf("direct prepare: %w", err)
		}
		prepared[k] = p
	}
	start := time.Now()
	for _, o := range ops {
		var err error
		switch o.kind {
		case opSelL, opSelO:
			_, err = prepared[o.kind].Exec(map[string]sqltypes.Value{"key": sqltypes.NewInt(o.key)})
		case opUpdL, opUpdO:
			_, err = prepared[o.kind].Exec(map[string]sqltypes.Value{
				"d": sqltypes.NewFloat(float64(o.n)), "key": sqltypes.NewInt(o.key)})
		default:
			_, err = sess.Exec(o.text(), nil)
		}
		if err != nil {
			return fmt.Errorf("direct exec %q: %w", o.text(), err)
		}
	}
	res.set("engine.exec_inproc_us", perCall(time.Since(start), calls), "us")

	// LAT insert and lookup with the rule set's own specs: Duration_LAT
	// (few groups, aging) and TopK_LAT (a new group and an eviction per
	// insert), fed Query objects through monitor.Getter.
	var specs []lat.Spec
	for _, name := range []string{"Duration_LAT", "TopK_LAT"} {
		t, ok := mon.LAT(name)
		if !ok {
			return fmt.Errorf("direct lat: %s missing", name)
		}
		specs = append(specs, t.Spec())
	}
	objs := make([]lat.AttrGetter, calls)
	for i := range objs {
		sigs := &monitor.Sigs{LogicalHex: fmt.Sprintf("%016x", i%4)}
		obj := monitor.NewQueryObject(&engine.QueryInfo{ID: int64(i + 1)}, sigs)
		obj.DurationAt = time.Duration(20+i%50) * time.Microsecond
		objs[i] = lat.AttrGetter(monitor.Getter(obj))
	}
	var insert time.Duration
	var tables []*lat.Table
	for _, spec := range specs {
		t, err := lat.New(spec)
		if err != nil {
			return fmt.Errorf("direct lat: %w", err)
		}
		tables = append(tables, t)
		start := time.Now()
		for _, get := range objs {
			if err := t.Insert(get); err != nil {
				return fmt.Errorf("direct lat insert: %w", err)
			}
		}
		insert += time.Since(start)
	}
	start = time.Now()
	for _, get := range objs {
		if _, ok := tables[0].LookupByGetter(get); !ok {
			return fmt.Errorf("direct lat lookup: group missing")
		}
	}
	lookup := time.Since(start)
	res.set("lat.insert_ns", ratio(float64(insert.Nanoseconds()), float64(calls*len(specs))), "ns")
	res.set("lat.lookup_ns", ratio(float64(lookup.Nanoseconds()), float64(calls)), "ns")

	// One uncontended exclusive table lock, acquired and released.
	locks := lock.NewManager(time.Second)
	start = time.Now()
	for i := 1; i <= calls; i++ {
		if err := locks.Acquire(lock.TxnID(i), lock.TableResource("t"), lock.Exclusive); err != nil {
			return fmt.Errorf("direct lock: %w", err)
		}
		locks.ReleaseAll(lock.TxnID(i))
	}
	res.set("lock.acquire_ns", ratio(float64(time.Since(start).Nanoseconds()), float64(calls)), "ns")

	// One version-prune pass over every table, as every 256th writer
	// commit runs it on its own goroutine.
	start = time.Now()
	eng.PruneVersionsNow()
	res.set("storage.prune_pass_ms", float64(time.Since(start).Microseconds())/1e3, "ms")

	if err := os.MkdirAll(e.cfg.outDir, 0o755); err != nil {
		return err
	}
	return e.tr.write(filepath.Join(e.cfg.outDir, "trace-"+e.cfg.wl.name+".json"))
}
