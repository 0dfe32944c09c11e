// Package loadgen is an open-loop load harness for the network front-end
// (internal/server). Each connection issues statements on a fixed schedule
// derived from the target rate — latency is measured from the *scheduled*
// send time, not the actual one, so a slow server accrues queueing delay
// instead of silently throttling the generator (coordinated omission).
//
// The statement mix is biased by the simulation profiles (internal/sim):
// the profile's query/advance/block shares become point-SELECT and UPDATE
// shares against the workload schema (internal/workload), with Zipf key
// skew so a handful of rows and statements dominate, as in real OLTP
// monitoring workloads.
package loadgen

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"sync"
	"syscall"
	"time"

	"sqlcm/internal/server"
	"sqlcm/internal/server/errcode"
	"sqlcm/internal/sim"
	"sqlcm/internal/sqltypes"
	"sqlcm/internal/workload"
)

// Config shapes one load run.
type Config struct {
	// Addr is the server address.
	Addr string
	// Conns is the number of concurrent connections (default 8).
	Conns int
	// Rate is the target statement rate across all connections, per second
	// (default 200). The schedule is open-loop: the generator does not slow
	// down when the server does.
	Rate float64
	// Duration bounds the measured run (default 5s); connections are all
	// established before the clock starts.
	Duration time.Duration
	// Profile biases the statement mix (sim.ProfileOLTP/Blocker/Timer).
	Profile sim.Profile
	// Mix overrides the profile's statement thresholds when non-nil: the
	// cumulative percentage cut-points for sel_l / sel_o / upd_l (the
	// remainder is upd_o). A read-mostly run passes e.g.
	// &[6]int{85, 95, 99, 100, 100, 100} for 95% reads.
	Mix *[6]int
	// Keys is the lineitem key-space size the generator draws from
	// (default 1000; must not exceed the loaded row count). Orders keys
	// are drawn from Keys/4 (at least 1), the workload's
	// orders-to-lineitem ratio.
	Keys int
	// Skew is the Zipf skew of key and statement choice (default 1.3).
	Skew float64
	// Seed drives the deterministic per-connection generators.
	Seed int64
	// User and Password are the connection identity (the application
	// name is "sqlcm-load").
	User, Password string
	// Reconnect makes workers survive transport failures: a broken
	// connection is redialed with exponential backoff (and statements
	// re-prepared) instead of retiring the worker. Initial dial failures
	// are tolerated too — the worker keeps trying on its schedule.
	Reconnect bool
	// ClientTimeout bounds each dial and request/response exchange
	// (default: the client's own 30s). Chaos runs set it low so toxic
	// connections fail fast instead of stalling the whole run.
	ClientTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Conns == 0 {
		c.Conns = 8
	}
	if c.Rate == 0 {
		c.Rate = 200
	}
	if c.Duration == 0 {
		c.Duration = 5 * time.Second
	}
	if c.Keys == 0 {
		c.Keys = 1000
	}
	if c.Skew == 0 {
		c.Skew = 1.3
	}
	if c.User == "" {
		c.User = "load"
	}
	return c
}

// ErrClass partitions failures for the run's accounting.
type ErrClass int

const (
	// ClassTimeout: the statement or exchange exceeded a deadline — a
	// client-side net timeout or the server's 57014 statement cancel.
	ClassTimeout ErrClass = iota
	// ClassReset: the transport died underneath the exchange (EOF,
	// connection reset, broken pipe, use of a closed connection).
	ClassReset
	// ClassReject: the server refused the connection politely (too many
	// connections, shutting down).
	ClassReject
	// ClassShed: the server shed the statement under overload (53400).
	ClassShed
	// ClassOther: everything else — in a chaos run with a correct server
	// and protocol this class stays at zero, so it doubles as the
	// corruption detector.
	ClassOther
)

// Classify maps an error from Dial/Prepare/ExecPrepared onto its class.
func Classify(err error) ErrClass {
	var we *server.WireError
	if errors.As(err, &we) {
		switch we.Code {
		case errcode.QueryCancelled.SQLSTATE:
			return ClassTimeout
		case errcode.TooManyConns.SQLSTATE, errcode.AdminShutdown.SQLSTATE:
			return ClassReject
		case errcode.Overloaded.SQLSTATE:
			return ClassShed
		default:
			return ClassOther
		}
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return ClassTimeout
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) ||
		errors.Is(err, net.ErrClosed) {
		return ClassReset
	}
	return ClassOther
}

// Result summarizes one load run.
type Result struct {
	Conns      int           `json:"conns"`
	Ops        int64         `json:"ops"`
	Errors     int64         `json:"errors"`
	Timeouts   int64         `json:"timeouts"`
	Resets     int64         `json:"resets"`
	Rejects    int64         `json:"rejects"`
	Sheds      int64         `json:"sheds"`
	OtherErrs  int64         `json:"other_errors"`
	Reconnects int64         `json:"reconnects"`
	Elapsed    time.Duration `json:"elapsed_ns"`
	Throughput float64       `json:"ops_per_sec"`
	P50        time.Duration `json:"p50_ns"`
	P90        time.Duration `json:"p90_ns"`
	P99        time.Duration `json:"p99_ns"`
	P999       time.Duration `json:"p999_ns"`
	Max        time.Duration `json:"max_ns"`
}

// String renders the result for terminals.
func (r Result) String() string {
	return fmt.Sprintf(
		"conns=%d ops=%d errors=%d (timeout=%d reset=%d reject=%d shed=%d other=%d) reconnects=%d elapsed=%v throughput=%.1f/s p50=%v p90=%v p99=%v p999=%v max=%v",
		r.Conns, r.Ops, r.Errors, r.Timeouts, r.Resets, r.Rejects, r.Sheds, r.OtherErrs,
		r.Reconnects, r.Elapsed.Round(time.Millisecond), r.Throughput,
		r.P50, r.P90, r.P99, r.P999, r.Max)
}

// The prepared statements every worker installs: point reads and point
// writes against the workload schema, all keyed by one int parameter.
var stmts = []struct {
	name  string
	sql   string
	kinds []sqltypes.Kind
}{
	{"sel_l", "SELECT l_quantity, l_extendedprice FROM lineitem WHERE l_id = @key",
		[]sqltypes.Kind{sqltypes.KindInt}},
	{"sel_o", "SELECT o_totalprice, o_status FROM orders WHERE o_orderkey = @key",
		[]sqltypes.Kind{sqltypes.KindInt}},
	{"upd_l", "UPDATE lineitem SET l_quantity = @q WHERE l_id = @key",
		[]sqltypes.Kind{sqltypes.KindFloat, sqltypes.KindInt}},
	{"upd_o", "UPDATE orders SET o_status = @s WHERE o_orderkey = @key",
		[]sqltypes.Kind{sqltypes.KindString, sqltypes.KindInt}},
}

// worker is one connection's generator state.
type worker struct {
	cli  *server.Client // nil while disconnected (reconnect mode)
	r    *rand.Rand
	lkey func() int
	okey func() int
	w    [6]int // profile thresholds

	lats       []time.Duration
	ops        int64
	errs       int64
	byClass    [5]int64
	reconnects int64
}

// count records one classified error.
func (wk *worker) count(c ErrClass) {
	wk.errs++
	wk.byClass[c]++
}

// connect dials and installs the prepared-statement set.
func (wk *worker) connect(cfg Config) error {
	cli, err := server.Dial(cfg.Addr, server.ClientConfig{
		User: cfg.User, App: "sqlcm-load", Password: cfg.Password,
		Timeout: cfg.ClientTimeout,
	})
	if err != nil {
		return err
	}
	for _, st := range stmts {
		if err := cli.Prepare(st.name, st.sql, st.kinds...); err != nil {
			cli.Close() //nolint:errcheck
			return fmt.Errorf("prepare %s: %w", st.name, err)
		}
	}
	wk.cli = cli
	return nil
}

// dropConn closes and forgets the current connection, if any.
func (wk *worker) dropConn() {
	if wk.cli != nil {
		wk.cli.Close() //nolint:errcheck
		wk.cli = nil
	}
}

// reconnect redials with exponential backoff and jitter until it succeeds
// or the deadline passes: the backoff window starts at 10ms and doubles
// per retry up to backoffMax. Each failed attempt is classified and
// counted.
func (wk *worker) reconnect(cfg Config, deadline time.Time) bool {
	const backoffMax = 500 * time.Millisecond
	wk.dropConn()
	backoff := 10 * time.Millisecond
	for time.Now().Before(deadline) {
		if err := wk.connect(cfg); err == nil {
			wk.reconnects++
			return true
		} else { //nolint:revive // err scoped to the branch
			wk.count(Classify(err))
		}
		// Jitter over the upper half of the window decorrelates a fleet of
		// workers all knocked loose by the same event.
		sleep := backoff/2 + time.Duration(wk.r.Int63n(int64(backoff/2)+1))
		if remain := time.Until(deadline); sleep > remain {
			sleep = remain
		}
		if sleep > 0 {
			time.Sleep(sleep)
		}
		if backoff *= 2; backoff > backoffMax {
			backoff = backoffMax
		}
	}
	return false
}

// pick maps a profile roll onto a statement + parameters. The profile's
// query share becomes lineitem reads, its advance share orders reads, its
// block share lineitem updates (write-lock traffic), the rest orders
// updates — so ProfileBlocker yields ~3x the write share of ProfileOLTP.
func (wk *worker) pick() (name string, values []sqltypes.Value) {
	roll := wk.r.Intn(100)
	switch {
	case roll < wk.w[0]:
		return "sel_l", []sqltypes.Value{sqltypes.NewInt(int64(wk.lkey() + 1))}
	case roll < wk.w[1]:
		return "sel_o", []sqltypes.Value{sqltypes.NewInt(int64(wk.okey() + 1))}
	case roll < wk.w[2]:
		return "upd_l", []sqltypes.Value{
			sqltypes.NewFloat(float64(1 + wk.r.Intn(50))),
			sqltypes.NewInt(int64(wk.lkey() + 1)),
		}
	default:
		return "upd_o", []sqltypes.Value{
			sqltypes.NewString([]string{"O", "F", "P"}[wk.r.Intn(3)]),
			sqltypes.NewInt(int64(wk.okey() + 1)),
		}
	}
}

// newWorker builds connection i's deterministic generator. The orders key
// space is Keys/4 but never empty: a Zipf sampler over zero ranks draws
// keys past the loaded rows.
func newWorker(cfg Config, i int, weights [6]int) *worker {
	r := rand.New(rand.NewSource(cfg.Seed + int64(i)*7919))
	return &worker{
		r:    r,
		lkey: workload.Zipf(r, cfg.Skew, cfg.Keys),
		okey: workload.Zipf(r, cfg.Skew, max(1, cfg.Keys/4)),
		w:    weights,
	}
}

// Run establishes cfg.Conns connections, prepares the statement set on each,
// then drives the open-loop schedule for cfg.Duration and reports latency
// percentiles over all completed statements.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()

	weights := cfg.Profile.Weights()
	if cfg.Mix != nil {
		weights = *cfg.Mix
	}
	workers := make([]*worker, cfg.Conns)
	for i := range workers {
		workers[i] = newWorker(cfg, i, weights)
	}
	var dialWG sync.WaitGroup
	dialErr := make(chan error, cfg.Conns)
	sem := make(chan struct{}, 32) // caps concurrent connection establishment
	for i, wk := range workers {
		dialWG.Add(1)
		go func(i int, wk *worker) {
			defer dialWG.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := wk.connect(cfg); err != nil {
				if cfg.Reconnect {
					// Tolerated: the worker retries on its schedule.
					wk.count(Classify(err))
					return
				}
				dialErr <- fmt.Errorf("loadgen: conn %d: %w", i, err)
			}
		}(i, wk)
	}
	dialWG.Wait()
	select {
	case err := <-dialErr:
		for _, wk := range workers {
			wk.dropConn()
		}
		return Result{}, err
	default:
	}

	// All connections are up; start the measured open-loop run. Each worker
	// sends every interval, staggered so the fleet doesn't phase-align.
	interval := time.Duration(float64(cfg.Conns) / cfg.Rate * float64(time.Second))
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	var runWG sync.WaitGroup
	for i, wk := range workers {
		runWG.Add(1)
		go func(i int, wk *worker) {
			defer runWG.Done()
			defer wk.dropConn()
			next := start.Add(time.Duration(i) * interval / time.Duration(cfg.Conns))
			for next.Before(deadline) {
				if d := time.Until(next); d > 0 {
					time.Sleep(d)
				}
				if wk.cli == nil {
					if !cfg.Reconnect || !wk.reconnect(cfg, deadline) {
						return
					}
				}
				name, values := wk.pick()
				if _, err := wk.cli.ExecPrepared(name, values...); err != nil {
					wk.count(Classify(err))
					var we *server.WireError
					if !errors.As(err, &we) {
						// Transport broken: retire the worker, or drop the
						// connection and let the next tick redial.
						if !cfg.Reconnect {
							return
						}
						wk.dropConn()
					}
				} else {
					wk.ops++
					wk.lats = append(wk.lats, time.Since(next))
				}
				next = next.Add(interval)
			}
		}(i, wk)
	}
	runWG.Wait()
	elapsed := time.Since(start)

	res := Result{Conns: cfg.Conns, Elapsed: elapsed}
	var all []time.Duration
	for _, wk := range workers {
		res.Ops += wk.ops
		res.Errors += wk.errs
		res.Timeouts += wk.byClass[ClassTimeout]
		res.Resets += wk.byClass[ClassReset]
		res.Rejects += wk.byClass[ClassReject]
		res.Sheds += wk.byClass[ClassShed]
		res.OtherErrs += wk.byClass[ClassOther]
		res.Reconnects += wk.reconnects
		all = append(all, wk.lats...)
	}
	res.Throughput = float64(res.Ops) / elapsed.Seconds()
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res.P50 = percentile(all, 0.50)
	res.P90 = percentile(all, 0.90)
	res.P99 = percentile(all, 0.99)
	res.P999 = percentile(all, 0.999)
	if n := len(all); n > 0 {
		res.Max = all[n-1]
	}
	return res, nil
}

// percentile reads the q-quantile from a sorted latency slice.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}
