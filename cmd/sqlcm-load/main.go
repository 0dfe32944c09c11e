// Command sqlcm-load is the open-loop load harness for sqlcm-serve: it
// opens many concurrent connections, prepares the workload statement set
// on each, then issues Zipf-skewed point reads and writes on a fixed
// schedule and reports throughput and latency percentiles. Latency is
// measured from the scheduled send time (open loop), so server slowdowns
// show up as queueing delay instead of vanishing into a throttled
// generator.
//
// The server must have the workload schema loaded (sqlcm-serve
// -lineitems N, with N >= -keys).
//
// Usage:
//
//	sqlcm-load -addr 127.0.0.1:5477 -conns 100 -rate 500 -duration 10s
//	sqlcm-load -profile blocker       # write-heavy mix
//	sqlcm-load -json                  # machine-readable result
//	sqlcm-load -reconnect -timeout 1s # survive transport faults; classify errors
//
// The summary breaks errors down by class — timeout, reset, reject,
// shed, other — plus the reconnect count; "other" staying at zero is the
// protocol-corruption check under fault injection.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"sqlcm/internal/loadgen"
	"sqlcm/internal/sim"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:5477", "server address")
	conns := flag.Int("conns", 100, "concurrent connections")
	rate := flag.Float64("rate", 500, "target statements/sec across all connections")
	duration := flag.Duration("duration", 10*time.Second, "measured run length")
	profile := flag.String("profile", "oltp", "statement-mix profile: oltp, blocker or timer")
	keys := flag.Int("keys", 1000, "lineitem key-space size (must not exceed loaded rows)")
	skew := flag.Float64("skew", 1.3, "Zipf skew of key and statement choice")
	seed := flag.Int64("seed", 1, "generator seed")
	user := flag.String("user", "load", "connection user")
	password := flag.String("password", "", "connection password")
	reconnect := flag.Bool("reconnect", false, "redial broken connections with exponential backoff instead of retiring the worker")
	timeout := flag.Duration("timeout", 0, "client-side deadline per dial and exchange (0 = the client default of 30s)")
	asJSON := flag.Bool("json", false, "emit the result as JSON")
	flag.Parse()

	prof, err := sim.ParseProfile(*profile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sqlcm-load:", err)
		os.Exit(2)
	}
	res, err := loadgen.Run(loadgen.Config{
		Addr:          *addr,
		Conns:         *conns,
		Rate:          *rate,
		Duration:      *duration,
		Profile:       prof,
		Keys:          *keys,
		Skew:          *skew,
		Seed:          *seed,
		User:          *user,
		Password:      *password,
		Reconnect:     *reconnect,
		ClientTimeout: *timeout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "sqlcm-load:", err)
		os.Exit(1)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(res) //nolint:errcheck
		return
	}
	fmt.Println(res)
}
