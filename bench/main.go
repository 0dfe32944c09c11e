// Command bench is the repository's benchmark: it builds an in-process
// sqlcm engine behind the wire server on loopback, drives it closed-loop
// with server.Client connections from the same process, and reports what a
// statement costs end to end with monitoring on and off, or, traced, where
// that cost goes layer by layer. README.md describes workloads and metrics.
//
//	bash bench/run.sh --workload point_read_mon_on --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -compare A.jsonl B.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: "+workloadNames())
		seed     = flag.Int64("seed", 1, "seed of the data and of every connection's statement stream")
		seconds  = flag.Float64("seconds", 20, "how long to measure")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics from an untraced window; 1: per-layer metrics from a traced run")
		out      = flag.String("out", "", "append the result as one JSON line to this file (the input of -compare)")
		compare  = flag.Bool("compare", false, "compare two result files: -compare A.jsonl B.jsonl")
		specPath = flag.String("benchmark", "BENCHMARK.json", "the benchmark declaration -compare takes bounds from")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: -compare A.jsonl B.jsonl")
		}
		worse, err := compareFiles(os.Stdout, *specPath, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	wl, ok := findWorkload(*name)
	if !ok {
		fatal(fmt.Sprintf("unknown workload %q; have %s", *name, workloadNames()))
	}
	if *seconds <= 0 || *seconds > 120 || (*trace != 0 && *trace != 1) {
		fatal("need 0 < -seconds <= 120 and -trace 0 or 1")
	}
	// A run that hangs must not outlive the caller's patience.
	time.AfterFunc(170*time.Second, func() { fatal("bench: still running after 170 s, giving up") })

	cfg := config{
		wl: wl, seed: *seed, seconds: *seconds, traced: *trace == 1,
		sc: defaultScale, warmup: warmupStmts, setups: 3, outDir: "bench/out",
	}
	res, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	report(res, cfg)
	if *out != "" {
		if err := appendResult(*out, res); err != nil {
			fatal(err)
		}
	}
	// The last line is the machine-readable result.
	line, err := json.Marshal(res.summary)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(v any) {
	fmt.Fprintln(os.Stderr, v)
	os.Exit(2)
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// report prints the run for a reader: what was run, on what, and every
// metric by name with its unit.
func report(res *result, cfg config) {
	fmt.Printf("workload %s  seed %d  seconds %g  trace %d\n", res.Workload, res.Seed, res.Seconds, res.Trace)
	fmt.Printf("host     nproc %d  GOMAXPROCS %d  %s %s\n", res.Host.NProc, res.Host.GoMaxProcs, res.Host.Go, res.Host.OSArch)
	fmt.Printf("data     lineitem %d, orders %d, part %d rows; in-memory disk; the default 2048-page (16 MiB) pool holds all of it\n",
		cfg.sc.lineitems, cfg.sc.orders, cfg.sc.parts)
	fmt.Printf("load     closed loop, %d connections, %d warm-up statements each\n", res.Host.Connections, cfg.warmup)
	if res.Trace == 0 {
		fmt.Printf("host speed %.4f of the reference host's; times are reported at reference speed, with the clock's reading beside them\n", res.HostSpeed)
	}
	fmt.Printf("samples  %d statement latencies; %d statements attempted, %d failed\n", res.Samples, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-36s %16.4f %s", name, m.Value, m.Unit)
		if raw, ok := res.Raw[name]; ok {
			fmt.Printf("  (clock: %.4f)", raw)
		}
		fmt.Println()
	}
	for _, note := range res.Notes {
		fmt.Println("FAILED CHECK:", note)
	}
}

func appendResult(path string, res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close() //nolint:errcheck // the write error is the one to report
		return err
	}
	return f.Close()
}
