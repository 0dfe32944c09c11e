// Command sqlcm-bench regenerates the paper's evaluation tables and
// figures (§6.2). Each experiment prints the same rows/series the paper
// reports; EXPERIMENTS.md records a reference run and compares it with the
// paper's numbers.
//
// Usage:
//
//	sqlcm-bench -exp sig            # §6.2.1 signature-computation overhead
//	sqlcm-bench -exp fig2           # Figure 2: rule-evaluation overhead
//	sqlcm-bench -exp fig3           # Figure 3 + accuracy: top-10 task (also -exp acc)
//	sqlcm-bench -exp all            # sig, fig2 and fig3
//	sqlcm-bench -exp fig3 -quick    # scaled-down fast run
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"sqlcm/internal/harness"
	"sqlcm/internal/workload"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: sig, fig2, fig3 (or acc), all")
	quick := flag.Bool("quick", false, "scaled-down configuration (seconds instead of minutes)")
	dataDir := flag.String("datadir", "", "directory for fig3's Query_logging log file (default: the system temp directory)")
	flag.Parse()

	ok := true
	switch *exp {
	case "sig":
		ok = runSig()
	case "fig2":
		ok = runFig2(*quick)
	case "fig3", "acc":
		ok = runFig3(*quick, *dataDir)
	case "all":
		ok = runSig() && runFig2(*quick) && runFig3(*quick, *dataDir)
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		ok = false
	}
	if !ok {
		os.Exit(1)
	}
}

func runSig() bool {
	fmt.Println("=== E-SIG: signature computation overhead (paper §6.2.1) ===")
	fmt.Println("paper: 0.5% of optimization for trivial selects -> 0.011% for complex TPC-H")
	fmt.Println("(our rule-based optimizer is ~1000x cheaper than SQL Server's; see EXPERIMENTS.md)")
	fmt.Println()
	res, err := harness.RunSignatureOverhead(5000)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sig:", err)
		return false
	}
	fmt.Printf("%-42s %10s %10s %10s %10s %12s\n",
		"query class", "parse", "optimize", "signature", "sig/opt", "sig/compile")
	for _, r := range res {
		fmt.Printf("%-42s %9dns %9dns %9dns %9.1f%% %11.1f%%\n",
			r.Class, r.ParseNs, r.OptimizeNs, r.SigNs, r.PctOfOptimize, r.PctOfCompile)
	}
	fmt.Println()
	return true
}

func runFig2(quick bool) bool {
	fmt.Println("=== E-FIG2: rule evaluation + LAT maintenance overhead (Figure 2) ===")
	cfg := harness.Fig2Config{}
	if quick {
		cfg = harness.Fig2Config{
			Queries:    2000,
			Lineitems:  10_000,
			RuleCounts: []int{100, 500, 1000},
			Conditions: []int{1, 20},
		}
	}
	pts, err := harness.RunFig2(cfg, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fig2:", err)
		return false
	}
	fmt.Println()
	fmt.Printf("%8s %12s %16s %16s %12s %20s\n",
		"rules", "conditions", "baseline", "monitored", "overhead", "per rule-eval cost")
	for _, p := range pts {
		perRule := float64(p.MonitoredNs-p.BaselineNs) / float64(p.Rules) / float64(cfgQueries(cfg))
		fmt.Printf("%8d %12d %16s %16s %11.2f%% %17.0fns\n",
			p.Rules, p.Conditions,
			time.Duration(p.BaselineNs), time.Duration(p.MonitoredNs),
			p.OverheadPct, perRule)
	}
	fmt.Println()
	fmt.Println("paper shape: overhead grows ~linearly with rule count; condition complexity")
	fmt.Println("has little impact (LAT maintenance dominates). See EXPERIMENTS.md for the")
	fmt.Println("absolute-percentage discussion (our substrate executes queries ~2500x faster")
	fmt.Println("than the 2003 testbed, so the same microseconds of rule work are a larger %).")
	fmt.Println()
	return true
}

func cfgQueries(cfg harness.Fig2Config) int {
	if cfg.Queries > 0 {
		return cfg.Queries
	}
	return 10_000
}

func runFig3(quick bool, dataDir string) bool {
	fmt.Println("=== E-FIG3 / E-ACC: top-10 most expensive queries (Figure 3) ===")
	cfg := harness.Fig3Config{DataDir: dataDir}
	if quick {
		cfg.Workload = workload.Config{
			Lineitems:    10_000,
			ShortQueries: 4_000,
			JoinQueries:  40,
			Seed:         11,
		}
		cfg.PollIntervals = []time.Duration{
			time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond,
		}
	}
	rows, err := harness.RunFig3(cfg, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fig3:", err)
		return false
	}
	fmt.Println()
	fmt.Printf("%-14s %-10s %14s %10s %10s %8s %12s\n",
		"approach", "interval", "elapsed", "overhead", "missed", "polls", "history_B")
	for _, r := range rows {
		fmt.Printf("%-14s %-10s %14s %9.2f%% %7d/10 %8d %12d\n",
			r.Approach, r.Param, time.Duration(r.ElapsedNs), r.OverheadPct, r.Missed, r.Polls, r.HistoryBytes)
	}
	fmt.Println()
	fmt.Println("paper shape: SQLCM cheapest (<0.1% there), PULL lossy (missed 5-9/10),")
	fmt.Println("PULL_history exact but costlier, Query_logging worst (>20%).")
	fmt.Println()
	return true
}
