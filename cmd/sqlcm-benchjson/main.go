// Command sqlcm-benchjson produces the committed benchmark snapshot
// (BENCH_10.json): the monitoring hot paths as single numbers — end-to-end
// event-dispatch rate, LAT observe cost — plus the wire-level load figures
// at a fixed connection count with monitoring on vs off, and the same load
// through a clean listener vs one injecting 5ms network jitter, so a
// regression in the engine, the front-end or the fault-handling path shows
// up as a diff in a checked-in file. (BENCH_10.json also holds an `mvcc`
// section — snapshot reads against the 2PL read path — recorded before
// that path was deleted; it cannot be re-measured.)
//
// Usage:
//
//	sqlcm-benchjson -out BENCH_10.json             # full run (1000 conns)
//	sqlcm-benchjson -quick -out /tmp/bench.json    # CI-sized run
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"time"

	"sqlcm"
	"sqlcm/internal/faults/netfaults"
	"sqlcm/internal/lat"
	"sqlcm/internal/loadgen"
	"sqlcm/internal/server"
	"sqlcm/internal/sim"
	"sqlcm/internal/sqltypes"
	"sqlcm/internal/workload"
)

type hostInfo struct {
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	CPUs   int    `json:"cpus"`
	Go     string `json:"go"`
}

type dispatchBench struct {
	Statements   int     `json:"statements"`
	Events       int64   `json:"events"`
	ElapsedNs    int64   `json:"elapsed_ns"`
	EventsPerSec float64 `json:"events_per_sec"`
	StmtsPerSec  float64 `json:"stmts_per_sec"`
}

type latBench struct {
	Inserts int   `json:"inserts"`
	Groups  int   `json:"groups"`
	NsPerOp int64 `json:"ns_per_op"`
}

type loadBench struct {
	Conns         int            `json:"conns"`
	Rate          float64        `json:"rate_target_per_sec"`
	DurationNs    int64          `json:"duration_ns"`
	MonitoringOn  loadgen.Result `json:"monitoring_on"`
	MonitoringOff loadgen.Result `json:"monitoring_off"`
}

type netchaosBench struct {
	Conns      int            `json:"conns"`
	Rate       float64        `json:"rate_target_per_sec"`
	DurationNs int64          `json:"duration_ns"`
	Clean      loadgen.Result `json:"clean"`
	Jitter5ms  loadgen.Result `json:"jitter_5ms"`
}

type benchFile struct {
	Generated string        `json:"generated"`
	Host      hostInfo      `json:"host"`
	Dispatch  dispatchBench `json:"dispatch"`
	LAT       latBench      `json:"lat_observe"`
	Load      loadBench     `json:"load"`
	Netchaos  netchaosBench `json:"netchaos"`
}

func main() {
	out := flag.String("out", "BENCH_10.json", "output file")
	conns := flag.Int("conns", 1000, "load-bench connection count")
	rate := flag.Float64("rate", 2000, "load-bench target statements/sec")
	duration := flag.Duration("duration", 10*time.Second, "load-bench run length per monitoring mode")
	quick := flag.Bool("quick", false, "CI-sized run (fewer conns, shorter, fewer ops)")
	flag.Parse()

	stmts, inserts := 20000, 200000
	if *quick {
		*conns, *rate, *duration = 50, 300, 2*time.Second
		stmts, inserts = 2000, 20000
	}

	var bf benchFile
	bf.Generated = time.Now().UTC().Format(time.RFC3339)
	bf.Host = hostInfo{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPUs: runtime.NumCPU(), Go: runtime.Version()}

	var err error
	if bf.Dispatch, err = benchDispatch(stmts); err != nil {
		fatal(err)
	}
	fmt.Printf("dispatch: %.0f events/sec (%.0f stmts/sec)\n", bf.Dispatch.EventsPerSec, bf.Dispatch.StmtsPerSec)
	if bf.LAT, err = benchLAT(inserts); err != nil {
		fatal(err)
	}
	fmt.Printf("lat observe: %d ns/op over %d groups\n", bf.LAT.NsPerOp, bf.LAT.Groups)
	if bf.Load, err = benchLoad(*conns, *rate, *duration); err != nil {
		fatal(err)
	}
	fmt.Printf("load on:  %s\n", bf.Load.MonitoringOn)
	fmt.Printf("load off: %s\n", bf.Load.MonitoringOff)
	// The netchaos comparison uses a smaller fleet: jitter costs wall time
	// per statement, and the point is the percentile delta, not scale.
	ncConns, ncRate := *conns/10, *rate/10
	if ncConns < 10 {
		ncConns, ncRate = 10, 100
	}
	if bf.Netchaos, err = benchNetchaos(ncConns, ncRate, *duration); err != nil {
		fatal(err)
	}
	fmt.Printf("netchaos clean:  %s\n", bf.Netchaos.Clean)
	fmt.Printf("netchaos jitter: %s\n", bf.Netchaos.Jitter5ms)
	buf, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sqlcm-benchjson:", err)
	os.Exit(1)
}

// benchDispatch measures the end-to-end monitored statement path: a
// quickstart-style rule set (per-template LAT + always-true collect rule)
// over repeated point selects, reported as bus events per second.
func benchDispatch(n int) (dispatchBench, error) {
	db, err := sqlcm.Open(sqlcm.Config{})
	if err != nil {
		return dispatchBench{}, err
	}
	defer db.Close() //nolint:errcheck
	if _, err := db.DefineLAT(sqlcm.LATSpec{
		Name:    "ByTemplate",
		GroupBy: []string{"Logical_Signature"},
		Aggs: []sqlcm.AggCol{
			{Func: sqlcm.Count, Attr: "ID", Name: "N"},
			{Func: sqlcm.Avg, Attr: "Duration", Name: "Avg_Duration"},
		},
	}); err != nil {
		return dispatchBench{}, err
	}
	if _, err := db.NewRule("collect", "Query.Commit", "", &sqlcm.InsertAction{LAT: "ByTemplate"}); err != nil {
		return dispatchBench{}, err
	}
	if _, err := db.Exec("CREATE TABLE b (id INT PRIMARY KEY, v FLOAT)", nil); err != nil {
		return dispatchBench{}, err
	}
	sess := db.Session("bench", "benchjson")
	for i := 0; i < 100; i++ {
		if _, err := sess.Exec("INSERT INTO b VALUES (@i, @v)", map[string]sqlcm.Value{
			"i": sqlcm.NewInt(int64(i)), "v": sqlcm.NewFloat(float64(i)),
		}); err != nil {
			return dispatchBench{}, err
		}
	}
	base := db.Monitor().Events()
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := sess.Exec("SELECT v FROM b WHERE id = @i", map[string]sqlcm.Value{
			"i": sqlcm.NewInt(int64(i % 100)),
		}); err != nil {
			return dispatchBench{}, err
		}
	}
	elapsed := time.Since(start)
	events := db.Monitor().Events() - base
	return dispatchBench{
		Statements:   n,
		Events:       events,
		ElapsedNs:    elapsed.Nanoseconds(),
		EventsPerSec: float64(events) / elapsed.Seconds(),
		StmtsPerSec:  float64(n) / elapsed.Seconds(),
	}, nil
}

// benchLAT measures the LAT observe path alone: Insert of one monitored
// object into a grouped two-aggregate table, ns per op.
func benchLAT(n int) (latBench, error) {
	table, err := lat.New(lat.Spec{
		Name:    "Bench",
		GroupBy: []string{"Logical_Signature"},
		Aggs: []lat.AggCol{
			{Func: lat.Count, Attr: "ID", Name: "N"},
			{Func: lat.Avg, Attr: "Duration", Name: "Avg_Duration"},
		},
	})
	if err != nil {
		return latBench{}, err
	}
	const groups = 64
	r := rand.New(rand.NewSource(1))
	sigs := make([]sqltypes.Value, groups)
	for i := range sigs {
		sigs[i] = sqltypes.NewString(fmt.Sprintf("q%03d", i))
	}
	var sig, id, dur sqltypes.Value
	get := func(attr string) (sqltypes.Value, bool) {
		switch attr {
		case "Logical_Signature":
			return sig, true
		case "ID":
			return id, true
		case "Duration":
			return dur, true
		}
		return sqltypes.Null, false
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		sig = sigs[r.Intn(groups)]
		id = sqltypes.NewInt(int64(i))
		dur = sqltypes.NewFloat(r.Float64())
		if err := table.Insert(get); err != nil {
			return latBench{}, err
		}
	}
	elapsed := time.Since(start)
	return latBench{
		Inserts: n,
		Groups:  groups,
		NsPerOp: elapsed.Nanoseconds() / int64(n),
	}, nil
}

// benchLoad runs the wire-level open-loop harness against an in-process
// server twice — monitoring attached, then suspended — at a fixed
// connection count.
func benchLoad(conns int, rate float64, duration time.Duration) (loadBench, error) {
	res := loadBench{Conns: conns, Rate: rate, DurationNs: duration.Nanoseconds()}
	on, err := benchLoadOnce(conns, rate, duration, true)
	if err != nil {
		return res, err
	}
	off, err := benchLoadOnce(conns, rate, duration, false)
	if err != nil {
		return res, err
	}
	res.MonitoringOn, res.MonitoringOff = on, off
	return res, nil
}

// benchNetchaos runs the wire load twice — through a clean listener and
// through one afflicting every connection with 5ms of uniform jitter —
// so the committed file pins the latency cost of degraded networks.
func benchNetchaos(conns int, rate float64, duration time.Duration) (netchaosBench, error) {
	res := netchaosBench{Conns: conns, Rate: rate, DurationNs: duration.Nanoseconds()}
	clean, err := benchChaosOnce(conns, rate, duration, 0)
	if err != nil {
		return res, err
	}
	jitter, err := benchChaosOnce(conns, rate, duration, 5*time.Millisecond)
	if err != nil {
		return res, err
	}
	res.Clean, res.Jitter5ms = clean, jitter
	return res, nil
}

func benchChaosOnce(conns int, rate float64, duration, jitter time.Duration) (loadgen.Result, error) {
	db, err := sqlcm.Open(sqlcm.Config{})
	if err != nil {
		return loadgen.Result{}, err
	}
	defer db.Close() //nolint:errcheck
	if _, err := workload.Setup(db.Engine(), workload.Config{Lineitems: 4000}); err != nil {
		return loadgen.Result{}, err
	}
	cfg := server.Config{
		Addr:             "127.0.0.1:0",
		MaxConns:         conns + 10,
		StatementTimeout: 5 * time.Second,
		NewSession:       db.RemoteSession,
		Drain:            db.Flush,
	}
	if jitter > 0 {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return loadgen.Result{}, err
		}
		cfg.Listener = netfaults.Wrap(lis, netfaults.Config{
			Seed:     1,
			Fraction: 1.0,
			Plans:    []netfaults.Plan{netfaults.JitterPlan(jitter)},
		})
	}
	srv, err := server.New(cfg)
	if err != nil {
		return loadgen.Result{}, err
	}
	if err := srv.Start(); err != nil {
		return loadgen.Result{}, err
	}
	res, err := loadgen.Run(loadgen.Config{
		Addr:      srv.Addr().String(),
		Conns:     conns,
		Rate:      rate,
		Duration:  duration,
		Profile:   sim.ProfileOLTP,
		Keys:      1000,
		Seed:      1,
		Reconnect: true,
	})
	if serr := srv.Shutdown(10 * time.Second); serr != nil && err == nil {
		err = serr
	}
	return res, err
}

func benchLoadOnce(conns int, rate float64, duration time.Duration, monitoring bool) (loadgen.Result, error) {
	db, err := sqlcm.Open(sqlcm.Config{})
	if err != nil {
		return loadgen.Result{}, err
	}
	defer db.Close() //nolint:errcheck
	if _, err := db.DefineLAT(sqlcm.LATSpec{
		Name:    "ByTemplate",
		GroupBy: []string{"Logical_Signature"},
		Aggs: []sqlcm.AggCol{
			{Func: sqlcm.Count, Attr: "ID", Name: "N"},
			{Func: sqlcm.Avg, Attr: "Duration", Name: "Avg_Duration"},
		},
	}); err != nil {
		return loadgen.Result{}, err
	}
	if _, err := db.NewRule("collect", "Query.Commit", "", &sqlcm.InsertAction{LAT: "ByTemplate"}); err != nil {
		return loadgen.Result{}, err
	}
	if !monitoring {
		db.Monitor().Suspend()
	}
	if _, err := workload.Setup(db.Engine(), workload.Config{Lineitems: 4000}); err != nil {
		return loadgen.Result{}, err
	}
	srv, err := server.New(server.Config{
		Addr:       "127.0.0.1:0",
		MaxConns:   conns + 10,
		NewSession: db.RemoteSession,
		Drain:      db.Flush,
	})
	if err != nil {
		return loadgen.Result{}, err
	}
	if err := srv.Start(); err != nil {
		return loadgen.Result{}, err
	}
	res, err := loadgen.Run(loadgen.Config{
		Addr:     srv.Addr().String(),
		Conns:    conns,
		Rate:     rate,
		Duration: duration,
		Profile:  sim.ProfileOLTP,
		Keys:     1000,
		Seed:     1,
	})
	if serr := srv.Shutdown(10 * time.Second); serr != nil && err == nil {
		err = serr
	}
	return res, err
}
