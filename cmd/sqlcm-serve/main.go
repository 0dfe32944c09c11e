// Command sqlcm-serve runs the monitored engine behind the network
// front-end (internal/server): a TCP server speaking the PostgreSQL-v3-
// style wire protocol, one engine session per connection, with the
// monitoring framework attached inside the engine.
//
// Usage:
//
//	sqlcm-serve -addr :5477                        # serve, monitoring on
//	sqlcm-serve -addr :5477 -monitor=false         # monitoring suspended
//	sqlcm-serve -rules examples/rulesets/quickstart.rules
//	sqlcm-serve -lineitems 10000                   # preload workload schema
//	sqlcm-serve -stmt-timeout 5s -shed 2ms         # statement deadlines + overload shedding
//	sqlcm-serve -chaos-fraction 0.3 -chaos-seed 7  # self-inflicted network faults
//
// SIGINT/SIGTERM triggers a graceful shutdown: stop accepting, let
// in-flight statements finish under -drain-timeout (statements that
// outlive the graceful window are cancelled with reason drain), then
// drain the monitoring action outbox before exiting.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"sqlcm"
	"sqlcm/internal/faults/netfaults"
	"sqlcm/internal/server"
	"sqlcm/internal/workload"
)

// options carries the parsed flag set into run.
type options struct {
	addr          string
	maxConns      int
	monitor       bool
	rulesFile     string
	password      string
	lineitems     int
	readTimeout   time.Duration
	writeTimeout  time.Duration
	drainTimeout  time.Duration
	admissionWait time.Duration
	stmtTimeout   time.Duration
	shed          time.Duration
	chaosFraction float64
	chaosSeed     int64
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "127.0.0.1:5477", "TCP listen address")
	flag.IntVar(&o.maxConns, "max-conns", 2000, "maximum concurrent connections")
	flag.BoolVar(&o.monitor, "monitor", true, "enable continuous monitoring (false suspends all probes)")
	flag.StringVar(&o.rulesFile, "rules", "", "load a .rules rule set at startup")
	flag.StringVar(&o.password, "password", "", "require cleartext-password auth with this password")
	flag.IntVar(&o.lineitems, "lineitems", 0, "preload the workload schema with this many lineitem rows (0 = none)")
	flag.DurationVar(&o.readTimeout, "read-timeout", 5*time.Minute, "per-message read timeout, idle time included")
	flag.DurationVar(&o.writeTimeout, "write-timeout", 30*time.Second, "per-write timeout (a client that stops reading is closed)")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", 10*time.Second, "graceful-shutdown budget")
	flag.DurationVar(&o.admissionWait, "admission-wait", 0, "how long a connection may wait for a MaxConns slot before the polite refusal (0 = refuse immediately)")
	flag.DurationVar(&o.stmtTimeout, "stmt-timeout", 0, "per-statement deadline; exceeding it cancels the statement with a retryable 57014 (0 = off)")
	flag.DurationVar(&o.shed, "shed", 0, "monitor dispatch budget: while the average rule dispatch exceeds it, sample events and refuse statements with a retryable 53400 (0 = off)")
	flag.Float64Var(&o.chaosFraction, "chaos-fraction", 0, "afflict this fraction of accepted connections with network faults (0 = off; testing only)")
	flag.Int64Var(&o.chaosSeed, "chaos-seed", 1, "seed for the chaos affliction schedule")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "sqlcm-serve:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	db, err := openDB(o)
	if err != nil {
		return err
	}
	defer db.Close() //nolint:errcheck
	cfg, err := serverConfig(o, db)
	if err != nil {
		return err
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}
	fmt.Printf("listening on %s (max %d connections, monitoring=%v)\n", srv.Addr(), o.maxConns, o.monitor)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down...")
	if err := srv.Shutdown(o.drainTimeout); err != nil {
		return err
	}
	st := srv.Stats()
	fmt.Printf("served %d connections, %d statements (%d errors, %d shed, %d cancelled)\n",
		st.Accepted, st.Statements, st.Errors, st.Shed, st.Cancelled)
	return nil
}

// openDB opens the monitored engine with -shed as its dispatch budget,
// loads the -rules set, applies -monitor and preloads -lineitems.
func openDB(o options) (db *sqlcm.DB, err error) {
	db, err = sqlcm.Open(sqlcm.Config{DispatchBudget: o.shed})
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			db.Close() //nolint:errcheck
		}
	}()
	if o.rulesFile != "" {
		src, err := os.ReadFile(o.rulesFile)
		if err != nil {
			return nil, err
		}
		if err := db.LoadRuleSet(string(src)); err != nil {
			return nil, fmt.Errorf("rules %s: %w", o.rulesFile, err)
		}
		fmt.Printf("loaded rule set %s\n", o.rulesFile)
	}
	if !o.monitor {
		db.Monitor().Suspend()
		fmt.Println("monitoring suspended")
	}
	if o.lineitems > 0 {
		start := time.Now()
		cfg, err := workload.Setup(db.Engine(), workload.Config{Lineitems: o.lineitems})
		if err != nil {
			return nil, fmt.Errorf("workload setup: %w", err)
		}
		fmt.Printf("workload schema loaded: %d lineitem, %d orders, %d part rows in %v\n",
			cfg.Lineitems, cfg.Orders, cfg.Parts, time.Since(start).Round(time.Millisecond))
	}
	return db, nil
}

// shedProbe: while the monitor is degraded, -shed admits one statement in
// shedProbe and refuses the rest.
const shedProbe = 16

// serverConfig builds the front-end's configuration over db.
func serverConfig(o options, db *sqlcm.DB) (server.Config, error) {
	cfg := server.Config{
		Addr:             o.addr,
		MaxConns:         o.maxConns,
		ReadTimeout:      o.readTimeout,
		WriteTimeout:     o.writeTimeout,
		DrainTimeout:     o.drainTimeout,
		AdmissionWait:    o.admissionWait,
		StatementTimeout: o.stmtTimeout,
		Password:         o.password,
		NewSession:       db.RemoteSession,
		Drain:            db.Flush,
	}
	if o.shed > 0 {
		// A refused statement raises no rule dispatch, and dispatches are
		// the only samples that bring the bus's latency average back under
		// the budget: let one statement in shedProbe through, or a server
		// that started shedding would never stop.
		bus := db.Monitor().Bus()
		var seen atomic.Int64
		cfg.Overloaded = func() bool { return bus.Degraded() && seen.Add(1)%shedProbe != 0 }
		fmt.Printf("overload shedding armed (dispatch budget %v)\n", o.shed)
	}
	if o.chaosFraction > 0 {
		// Self-inflicted chaos: bind the address ourselves and serve the
		// fault-injecting wrapper instead.
		lis, err := net.Listen("tcp", o.addr)
		if err != nil {
			return server.Config{}, err
		}
		cfg.Listener = netfaults.Wrap(lis, netfaults.Config{
			Seed:     o.chaosSeed,
			Fraction: o.chaosFraction,
		})
		fmt.Printf("network chaos armed: fraction=%.2f seed=%d\n", o.chaosFraction, o.chaosSeed)
	}
	return cfg, nil
}
