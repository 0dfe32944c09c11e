package harness

import (
	"io"
	"testing"
	"time"

	"sqlcm/internal/workload"
)

func TestSignatureOverheadShape(t *testing.T) {
	res, err := RunSignatureOverhead(200)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(sigQueryClasses) {
		t.Fatalf("rows: %d", len(res))
	}
	for _, r := range res {
		if r.ParseNs <= 0 || r.OptimizeNs <= 0 || r.SigNs <= 0 {
			t.Fatalf("bad measurement: %+v", r)
		}
		// The absolute cost is microseconds, paid once per cached plan.
		// Thresholds are generous: this test may run on a loaded machine
		// (the calibrated numbers come from cmd/sqlcm-bench).
		if r.SigNs > 2_000_000 {
			t.Errorf("%s: signature cost %dns is not negligible", r.Class, r.SigNs)
		}
		if r.PctOfCompile > 500 {
			t.Errorf("%s: signature %.1f%% of compilation — broken measurement?", r.Class, r.PctOfCompile)
		}
	}
}

func TestFig2SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("fig2 is a timing experiment")
	}
	pts, err := RunFig2(Fig2Config{
		Queries:    500,
		Lineitems:  2_000,
		RuleCounts: []int{10, 50},
		Conditions: []int{1, 5},
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points: %d", len(pts))
	}
	for _, p := range pts {
		if p.MonitoredNs <= 0 || p.BaselineNs <= 0 {
			t.Fatalf("bad point: %+v", p)
		}
	}
}

func TestFig3SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("fig3 is a timing experiment")
	}
	rows, err := RunFig3(Fig3Config{
		Workload: workload.Config{
			Lineitems:    3_000,
			ShortQueries: 800,
			JoinQueries:  10,
			Seed:         3,
		},
		PollIntervals: []time.Duration{5 * time.Millisecond, 50 * time.Millisecond},
		K:             5,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	byApproach := map[string][]Fig3Row{}
	for _, r := range rows {
		byApproach[r.Approach] = append(byApproach[r.Approach], r)
	}
	for _, want := range []string{"baseline", "SQLCM", "PULL", "PULL_history", "Query_logging"} {
		if len(byApproach[want]) == 0 {
			t.Fatalf("missing approach %s: %+v", want, rows)
		}
	}
	// SQLCM and the lossless approaches find (nearly) the full top-k;
	// at tiny scale durations jitter, so allow small slack.
	if got := byApproach["SQLCM"][0].Missed; got > 2 {
		t.Errorf("SQLCM missed %d of top-5", got)
	}
	if got := byApproach["Query_logging"][0].Missed; got > 2 {
		t.Errorf("Query_logging missed %d of top-5", got)
	}
	// Coarser polling must not be more accurate than finer polling by a
	// wide margin (the paper's accuracy trend), and PULL loses queries.
	pulls := byApproach["PULL"]
	if len(pulls) == 2 && pulls[0].Missed > pulls[1].Missed {
		t.Logf("note: finer poll missed %d, coarser %d (jitter at tiny scale)", pulls[0].Missed, pulls[1].Missed)
	}
	if pulls[len(pulls)-1].Missed == 0 {
		t.Errorf("coarse PULL should miss some of the top-k: %+v", pulls)
	}
}
