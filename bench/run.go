package main

import (
	_ "embed"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"sqlcm"
	"sqlcm/internal/engine"
	"sqlcm/internal/event"
	"sqlcm/internal/monitor"
	"sqlcm/internal/server"
	"sqlcm/internal/sqltypes"
)

//go:embed rules/bench.rules
var benchRules string

// config is one run of one workload.
type config struct {
	wl      workload
	seed    int64
	seconds float64
	traced  bool
	sc      scale
	// maxStmts, when positive, ends each measuring window after this many
	// statements per connection (the smoke test's size limit).
	maxStmts int
	// warmup is the statements each connection runs before measuring.
	warmup int
	// setups is how many times set-up is timed; setup_s is their median.
	setups int
	// outDir receives the traced run's span file.
	outDir string
}

// warmupStmts fills the plan cache, the buffer pool, the signature cache and
// the LATs (TopK_LAT is full after ten statements) before anything is timed.
const warmupStmts = 3000

// metric is one measured value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the machine-readable last line of a run's output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// host records where a run was made.
type host struct {
	NProc       int    `json:"nproc"`
	GoMaxProcs  int    `json:"gomaxprocs"`
	Go          string `json:"go"`
	OSArch      string `json:"os_arch"`
	Connections int    `json:"connections"`
}

// result is what one run reports.
type result struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	Host     host    `json:"host"`
	summary
	// Samples is the number of statement latencies the timing metrics rest
	// on, and Notes are the failed checks.
	Samples int64    `json:"samples"`
	Notes   []string `json:"notes,omitempty"`
	// Untraced runs: the host's speed during the run as a share of the
	// reference host's (hostspeed.go), the timing metrics as the clock
	// read them, before they were brought to reference speed, and the
	// measuring windows one by one, for a reader who wants to see drift or
	// stalls within the run.
	HostSpeed float64            `json:"host_speed,omitempty"`
	Kernels   map[string]float64 `json:"kernels,omitempty"` // the calibration kernels' median rates, 1/s
	Raw       map[string]float64 `json:"raw,omitempty"`
	Windows   []windowStat       `json:"windows,omitempty"`
}

// windowStat is one measuring window as the clock read it.
type windowStat struct {
	Stmts      int64   `json:"stmts"`
	Seconds    float64 `json:"seconds"`
	CPUSeconds float64 `json:"cpu_seconds"`
	P50us      float64 `json:"p50_us"`
	P95us      float64 `json:"p95_us"`
	P99us      float64 `json:"p99_us"`
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func hostRecord() host {
	return host{
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		OSArch: runtime.GOOS + "/" + runtime.GOARCH, Connections: connections(),
	}
}

// connections is the closed loop's width: a pg-style connection is a caller
// that waits for its reply, and with client and server in one process more
// callers than cores would only queue.
func connections() int { return min(2, runtime.NumCPU()) }

// benchConn is one client connection and what it has counted.
type benchConn struct {
	idx    int
	cl     *server.Client
	stream *stream
	seq    int64 // statements sent, for trace ids

	attempted, failed, rows int64
	// delta sums the increments of committed transactions since load.
	delta, pendingDelta int64
	inTxn, txnFailed    bool
	firstErr            error

	// rssAt is the value of attempted at which the connection reads the
	// process's peak resident set into rssMB.
	rssAt int64
	rssMB float64
}

// do sends one statement and checks its reply.
func (c *benchConn) do(o op) error {
	var rows *server.Rows
	var err error
	switch o.kind {
	case opSelL:
		rows, err = c.cl.ExecPrepared("sel_l", sqltypes.NewInt(o.key))
	case opSelO:
		rows, err = c.cl.ExecPrepared("sel_o", sqltypes.NewInt(o.key))
	case opUpdL:
		rows, err = c.cl.ExecPrepared("upd_l", sqltypes.NewFloat(float64(o.n)), sqltypes.NewInt(o.key))
	case opUpdO:
		rows, err = c.cl.ExecPrepared("upd_o", sqltypes.NewFloat(float64(o.n)), sqltypes.NewInt(o.key))
	default:
		rows, err = c.cl.Query(o.text())
	}
	if err != nil {
		return err
	}
	switch want := o.wantRows(); {
	case want >= 0 && len(rows.Rows) != want:
		return fmt.Errorf("%s: %d rows, want %d", o.text(), len(rows.Rows), want)
	case (o.kind == opUpdL || o.kind == opUpdO) && rows.Tag != "OK 1":
		return fmt.Errorf("%s: tag %q, want \"OK 1\"", o.text(), rows.Tag)
	}
	c.rows += int64(len(rows.Rows))
	return nil
}

// step runs the stream's next statement and returns its latency. tr is nil
// outside the traced window.
func (c *benchConn) step(tr *tracer, conns int) time.Duration {
	o := c.stream.next()
	c.seq++
	var ct *connTrace
	if tr != nil {
		ct = tr.conns[c.idx]
		ct.begin(c.seq*int64(conns) + int64(c.idx))
	}
	start := time.Now()
	err := c.do(o)
	lat := time.Since(start)
	if ct != nil {
		at := int64(start.Sub(tr.base))
		ct.end(at, at+int64(lat))
	}
	c.attempted++
	if c.attempted == c.rssAt {
		c.rssMB = peakRSSMB()
	}
	if err != nil {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = err
		}
	}
	switch o.kind {
	case opBegin:
		c.inTxn, c.txnFailed, c.pendingDelta = true, err != nil, 0
	case opUpdL:
		c.pendingDelta = o.n
		c.txnFailed = c.txnFailed || err != nil
	case opUpdO:
		c.txnFailed = c.txnFailed || err != nil
	case opCommit:
		if err == nil && !c.txnFailed {
			c.delta += c.pendingDelta
		}
		c.inTxn = false
	}
	return lat
}

// env is a set-up system: engine with monitor, server, and connected,
// prepared, warmed-up clients.
type env struct {
	cfg   config
	db    *sqlcm.DB
	srv   *server.Server
	conns []*benchConn
	// baseQty is SUM(l_quantity) as loaded.
	baseQty float64

	// Traced runs only: the tracer and the bus, signature cache and hook
	// set of the traced window.
	tr       *tracer
	bus      *event.Bus
	sigs     *monitor.SigCache
	traceHks *timingHooks
}

// setup is the work setup_s times: open, load, install rules, start the
// server, connect, prepare, warm up.
func setup(cfg config) (e *env, err error) {
	e = &env{cfg: cfg}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	e.db, err = sqlcm.Open(sqlcm.Config{RuleCheck: sqlcm.RuleCheckStrict})
	if err != nil {
		return e, err
	}
	eng, mon := e.db.Engine(), e.db.Monitor()
	if err = load(eng, cfg.sc, cfg.seed); err != nil {
		return e, err
	}
	if err = e.db.LoadRuleSet(benchRules); err != nil {
		return e, err
	}
	if e.baseQty, err = e.sumQuantity(); err != nil {
		return e, err
	}
	n := connections()
	if cfg.traced {
		e.tr = newTracer(n)
		if cfg.wl.monitored {
			e.bus = event.NewBus(timingSink{tr: e.tr, inner: mon.Rules()})
			e.sigs = monitor.NewSigCache()
			e.traceHks = &timingHooks{tr: e.tr, inner: event.NewHooks(e.bus, e.sigs, monitor.NewTxnTracker())}
		} else {
			e.traceHks = &timingHooks{tr: e.tr}
		}
	}
	e.srv, err = server.New(server.Config{
		Addr: "127.0.0.1:0",
		NewSession: func(user, app, remote string) *engine.Session {
			s := e.db.RemoteSession(user, app, remote)
			if e.tr != nil {
				var i int
				if _, err := fmt.Sscanf(user, "bench%d", &i); err == nil && i < n {
					e.tr.register(s.ID, i)
				}
			}
			return s
		},
		Drain: e.db.Flush,
	})
	if err != nil {
		return e, err
	}
	if err = e.srv.Start(); err != nil {
		e.srv = nil
		return e, err
	}
	for i := 0; i < n; i++ {
		cl, err := server.Dial(e.srv.Addr().String(), server.ClientConfig{User: fmt.Sprintf("bench%d", i), App: "bench"})
		if err != nil {
			return e, err
		}
		e.conns = append(e.conns, &benchConn{idx: i, cl: cl, stream: newStream(cfg.wl.mix, cfg.sc, cfg.seed, i, n+1)})
		for _, p := range []struct {
			name, sql string
			kinds     []sqltypes.Kind
		}{
			{"sel_l", sqlSelL, []sqltypes.Kind{sqltypes.KindInt}},
			{"sel_o", sqlSelO, []sqltypes.Kind{sqltypes.KindInt}},
			{"upd_l", sqlUpdL, []sqltypes.Kind{sqltypes.KindFloat, sqltypes.KindInt}},
			{"upd_o", sqlUpdO, []sqltypes.Kind{sqltypes.KindFloat, sqltypes.KindInt}},
		} {
			if err = cl.Prepare(p.name, p.sql, p.kinds...); err != nil {
				return e, err
			}
		}
	}
	if !cfg.wl.monitored {
		mon.Suspend()
	}
	e.measure(0, cfg.warmup, nil)
	for _, c := range e.conns {
		if c.firstErr != nil {
			return e, fmt.Errorf("warm-up: %w", c.firstErr)
		}
		c.rssAt = c.attempted + rssAfter
	}
	// Collect the load's garbage now, not during the first measured second.
	runtime.GC()
	return e, nil
}

// close tears the system down; closing twice is harmless.
func (e *env) close() {
	for _, c := range e.conns {
		c.cl.Close() //nolint:errcheck // the server is shut down next
	}
	if e.srv != nil {
		if err := e.srv.Shutdown(5 * time.Second); err != nil {
			fmt.Fprintln(os.Stderr, "bench: server shutdown:", err)
		}
	}
	if e.db != nil {
		if err := e.db.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "bench: close:", err)
		}
	}
	e.conns, e.srv, e.db = nil, nil, nil
}

func (e *env) rows() int64 {
	var n int64
	for _, c := range e.conns {
		n += c.rows
	}
	return n
}

func (e *env) sumQuantity() (float64, error) {
	res, err := e.db.Exec("SELECT SUM(l_quantity) FROM lineitem", nil)
	if err != nil {
		return 0, err
	}
	return res.Rows[0][0].Float(), nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// window is what one measuring window saw.
type window struct {
	elapsed time.Duration
	stmts   int64
	cpu     time.Duration
	lat     []int32 // every statement's latency, ns, ascending
}

// measure runs every connection's closed loop for d, or for maxStmts
// statements per connection when that is positive, whichever ends first;
// a transaction in flight is finished first. With tr the statements are
// traced.
func (e *env) measure(d time.Duration, maxStmts int, tr *tracer) *window {
	w := &window{}
	if d <= 0 && maxStmts <= 0 {
		return w
	}
	per := make([][]int32, len(e.conns))
	n0, cpu0 := e.attempted(), cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	for i, c := range e.conns {
		wg.Add(1)
		go func(c *benchConn, out *[]int32) {
			defer wg.Done()
			for n := 0; c.inTxn || !((d > 0 && time.Since(start) >= d) || (maxStmts > 0 && n >= maxStmts)); n++ {
				lat := c.step(tr, len(e.conns))
				*out = append(*out, int32(min(lat, 1<<31-1)))
			}
		}(c, &per[i])
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	w.cpu = cpuTime() - cpu0
	w.stmts = e.attempted() - n0
	for _, lat := range per {
		w.lat = append(w.lat, lat...)
	}
	slices.Sort(w.lat)
	return w
}

func (e *env) attempted() int64 {
	var n int64
	for _, c := range e.conns {
		n += c.attempted
	}
	return n
}

// windowLen is how long one measuring window of a phase lasts. A window
// holds at least 4 000 statements of the slowest workload, so its 95th
// percentile has two hundred samples beyond it and its 99th forty.
const windowLen = 800 * time.Millisecond

// phase is a run of measuring windows; every timing metric is the median
// over its windows, so that a window lost to a neighbour on the host moves
// a metric by one rank, while work that recurs (a prune pass every few
// hundred commits, GC cycles) is in every window and stays in.
type phase []*window

// measurePhase measures windows until total has passed, or until every
// connection has run maxStmts statements when that is positive. After each
// window cal, when not nil, times the host for a slice; the slices are part
// of total.
func (e *env) measurePhase(total time.Duration, maxStmts int, tr *tracer, cal *calibrator) phase {
	var p phase
	start := time.Now()
	// Whole windows only, and at least one.
	for done := 0; len(p) == 0 || (time.Since(start)+windowLen <= total && (maxStmts <= 0 || done < maxStmts)); {
		w := e.measure(min(total, windowLen), max(maxStmts-done, 0), tr)
		p = append(p, w)
		done += int(w.stmts) / len(e.conns)
		if cal != nil {
			cal.slice()
		}
	}
	return p
}

func (p phase) stmts() (n int64) {
	for _, w := range p {
		n += w.stmts
	}
	return n
}

// all is every latency of the phase, ascending.
func (p phase) all() []int32 {
	var all []int32
	for _, w := range p {
		all = append(all, w.lat...)
	}
	slices.Sort(all)
	return all
}

func (p phase) median(f func(w *window) float64) float64 {
	vals := make([]float64, len(p))
	for i, w := range p {
		vals[i] = f(w)
	}
	return median(vals)
}

// throughput is statements per second.
func (p phase) throughput() float64 {
	return p.median(func(w *window) float64 { return float64(w.stmts) / w.elapsed.Seconds() })
}

func (p phase) p50us() float64 {
	return p.median(func(w *window) float64 { return quantile(w.lat, 0.5) }) / 1e3
}

// tailUs is the median over windows of each window's q-quantile, in
// microseconds. A window needs ten samples beyond the quantile to count.
func (p phase) tailUs(q float64) float64 {
	lats := make([][]int32, len(p))
	for i, w := range p {
		lats[i] = w.lat
	}
	return windowedQuantile(lats, q, int(math.Ceil(10/(1-q)))) / 1e3
}

// cpuUsPerStmt is the process's user plus system CPU time per statement.
func (p phase) cpuUsPerStmt() float64 {
	return p.median(func(w *window) float64 { return float64(w.cpu.Microseconds()) / float64(max(w.stmts, 1)) })
}

// rssAfter is the number of measured statements per connection after which
// peak_rss_mb is read. The ad-hoc workload's plan cache grows with every
// statement, so memory has to be compared at equal work, not at equal time:
// read at the end of the run, a faster engine would look like a fatter one.
// The seed commit reaches the mark after 1.5 to 11 of the 20 seconds.
const rssAfter = 50_000

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64) //nolint:errcheck // a malformed line reads as 0
			return kb / 1024
		}
	}
	return 0
}

// run executes one workload and reports its metrics: the end-to-end ones
// from an untraced phase, or the per-layer ones from a traced run.
func run(cfg config) (*result, error) {
	res := &result{
		Workload: cfg.wl.name, Seed: cfg.seed, Seconds: cfg.seconds, Host: hostRecord(),
		summary: summary{Correct: true, Metrics: map[string]metric{}},
	}
	if cfg.traced {
		res.Trace = 1
		return res, runTraced(cfg, res)
	}
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.close()

	begin := time.Now()
	e, err := setup(cfg)
	if err != nil {
		return nil, err
	}
	setupTimes := []float64{time.Since(begin).Seconds()}
	defer func() { e.close() }()

	p := e.measurePhase(time.Duration(cfg.seconds*float64(time.Second)), cfg.maxStmts, nil, cal)
	rssMB := 0.0
	for _, c := range e.conns {
		rssMB = max(rssMB, c.rssMB)
	}
	if rssMB == 0 { // a run too short to reach the mark
		rssMB = peakRSSMB()
	}
	e.check(res)
	e.close()

	// Set-up again, for a median that one slow start does not move. After
	// the measurement, so that peak_rss_mb is one set-up's.
	for i := 1; i < cfg.setups; i++ {
		begin := time.Now()
		e, err = setup(cfg)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(begin).Seconds())
		e.close()
	}

	res.HostSpeed, err = cal.hostSpeed()
	if err != nil {
		return nil, err
	}
	res.Kernels = map[string]float64{"round_trips_s": median(cal.roundTrips), "loads_s": median(cal.loads)}
	res.Samples = p.stmts()
	for _, w := range p {
		res.Windows = append(res.Windows, windowStat{
			Stmts: w.stmts, Seconds: w.elapsed.Seconds(), CPUSeconds: w.cpu.Seconds(),
			P50us: quantile(w.lat, 0.5) / 1e3, P95us: quantile(w.lat, 0.95) / 1e3, P99us: quantile(w.lat, 0.99) / 1e3,
		})
	}
	// Times are reported as the reference host would have taken them: on a
	// host running at 0.8 of its speed a statement that took 50 us counts
	// as 40 us. Raw keeps what the clock said.
	res.Raw = map[string]float64{
		"throughput_stmts_s": p.throughput(), "stmt_p50_us": p.p50us(), "stmt_p95_us": p.tailUs(0.95),
		"cpu_us_per_stmt": p.cpuUsPerStmt(), "setup_s": median(setupTimes),
	}
	res.set("throughput_stmts_s", res.Raw["throughput_stmts_s"]/res.HostSpeed, "1/s")
	for _, m := range []struct{ name, unit string }{
		{"stmt_p50_us", "us"}, {"stmt_p95_us", "us"}, {"cpu_us_per_stmt", "us"}, {"setup_s", "s"},
	} {
		res.set(m.name, res.Raw[m.name]*res.HostSpeed, m.unit)
	}
	res.set("peak_rss_mb", rssMB, "MB")
	return res, nil
}

// check verifies what the run left behind; every violated check marks the
// result incorrect. Statement-level checks were made as replies arrived.
func (e *env) check(res *result) {
	mon := e.db.Monitor()
	for _, c := range e.conns {
		res.Attempted += c.attempted
		res.Failed += c.failed
		if c.firstErr != nil {
			res.fail("connection %d: %d statements failed, first: %v", c.idx, c.failed, c.firstErr)
		}
	}
	if !e.db.Flush(10 * time.Second) {
		res.fail("outbox did not drain")
	}

	var delta int64
	for _, c := range e.conns {
		delta += c.delta
	}
	if got, err := e.sumQuantity(); err != nil {
		res.fail("SUM(l_quantity): %v", err)
	} else if want := e.baseQty + float64(delta); got != want {
		res.fail("SUM(l_quantity) = %v, want %v (loaded %v + committed increments %d)", got, want, e.baseQty, delta)
	}

	if e.cfg.wl.monitored {
		commits := mon.Bus().Count(monitor.EvQueryCommit) - mon.Bus().ShedCount(monitor.EvQueryCommit)
		if e.bus != nil {
			commits += e.bus.Count(monitor.EvQueryCommit) - e.bus.ShedCount(monitor.EvQueryCommit)
		}
		if t, ok := mon.LAT("Duration_LAT"); !ok {
			res.fail("Duration_LAT missing")
		} else {
			var n int64
			col := t.ColumnIndex("N")
			for _, row := range t.Rows() {
				n += row[col].Int()
			}
			if n != commits {
				res.fail("Duration_LAT counts %d statements, the bus delivered %d Query.Commit events", n, commits)
			}
		}
		if t, ok := mon.LAT("TopK_LAT"); !ok || t.Len() != 10 {
			res.fail("TopK_LAT does not hold exactly 10 rows")
		}
	}
	rs := mon.Rules().Stats()
	if rs.Panics != 0 || rs.ActionErrs != 0 {
		res.fail("rules: %d panics, %d action errors", rs.Panics, rs.ActionErrs)
	}
	if n := len(mon.Outbox().DeadLetters()); n != 0 {
		res.fail("outbox: %d dead letters", n)
	}
	if st := e.srv.Stats(); st.Errors != 0 || st.Shed != 0 || st.Cancelled != 0 {
		res.fail("server: %d errors, %d shed, %d cancelled", st.Errors, st.Shed, st.Cancelled)
	}
}
