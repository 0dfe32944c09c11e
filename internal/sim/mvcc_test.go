package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sqlcm/internal/core"
	"sqlcm/internal/engine"
	"sqlcm/internal/lat"
	"sqlcm/internal/rules"
)

// TestMVCCVisibilitySweep runs the differential visibility oracle over a
// seed sweep: the real version store and a naive full-history recompute
// must agree on every row, for every live snapshot, after every step of a
// randomized begin/write/commit/rollback/relocate/prune schedule. The
// sim-mvcc tier raises the sweep via SQLCM_SIM_SEEDS.
func TestMVCCVisibilitySweep(t *testing.T) {
	seeds := seedCount(t, 8)
	steps := eventCount(t, 400)
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			if err := RunMVCCDiff(MVCCDiffConfig{Seed: int64(seed), Steps: steps}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestGoldenReplayMVCC replays the three pinned golden traces on the MVCC
// build and requires the recorded fingerprints unchanged. The goldens
// cover the full monitoring surface (trace, effect journal, final LAT
// rows); identical fingerprints pin that introducing versioned storage
// did not shift any monitor-visible semantics.
func TestGoldenReplayMVCC(t *testing.T) {
	for _, tc := range goldenCases {
		tc := tc
		t.Run(tc.file, func(t *testing.T) {
			tf, err := LoadTraceFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			res, err := Replay(Config{Seed: tc.seed, Events: tc.events, Profile: tc.prof}, tf.Trace)
			if err != nil {
				t.Fatal(err)
			}
			if res.Divergence != nil {
				t.Fatalf("golden replay diverged on MVCC build: %s", res.Divergence)
			}
			if res.Fingerprint != tf.Fingerprint {
				t.Fatalf("golden fingerprint drifted on MVCC build: got %016x, recorded %016x",
					res.Fingerprint, tf.Fingerprint)
			}
		})
	}
}

// invarianceRun executes a fixed single-session workload on a monitored
// engine and returns (statement results, rule-dispatch journal, LAT rows),
// all rendered to strings for bit-identical comparison.
func invarianceRun(t *testing.T) (results, journal, latRows []string) {
	t.Helper()
	eng, err := engine.Open(engine.Config{LockTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	s := core.Attach(eng, core.Options{})
	defer func() {
		s.Detach()
		eng.Close()
	}()

	if _, err := s.DefineLAT(lat.Spec{
		Name:    "inv_lat",
		GroupBy: []string{"Logical_Signature", "Query_Type"},
		Aggs: []lat.AggCol{
			{Func: lat.Count, Name: "N"},
			{Func: lat.Min, Attr: "ID", Name: "MinID"},
			{Func: lat.Max, Attr: "ID", Name: "MaxID"},
			{Func: lat.Sum, Attr: "Rows_Examined", Name: "Examined"},
		},
		OrderBy: []lat.OrderKey{{Col: "MinID"}},
	}); err != nil {
		t.Fatal(err)
	}
	// Two rules: one that always fires into the LAT and one whose condition
	// splits on a deterministic attribute, so the journal records both rule
	// names with data-dependent outcomes.
	if _, err := s.NewRule("inv_tally", "Query.Commit", "Query.ID > 0",
		&rules.InsertAction{LAT: "inv_lat"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewRule("inv_wide", "Query.Commit", "Query.Rows_Examined > 3"); err != nil {
		t.Fatal(err)
	}
	s.Rules().SetEvalObserver(func(rule string, fired bool) {
		journal = append(journal, fmt.Sprintf("%s=%v", rule, fired))
	})

	sess := eng.NewSession("inv", "sim")
	workload := []string{
		"CREATE TABLE inv (id INT PRIMARY KEY, grp INT, val INT)",
		"INSERT INTO inv VALUES (1, 0, 10)",
		"INSERT INTO inv VALUES (2, 1, 20)",
		"INSERT INTO inv VALUES (3, 0, 30)",
		"INSERT INTO inv VALUES (4, 1, 40)",
		"INSERT INTO inv VALUES (5, 0, 50)",
		"SELECT COUNT(*) FROM inv",
		"SELECT val FROM inv WHERE id = 3",
		"SELECT SUM(val) AS s FROM inv WHERE grp = 0",
		"UPDATE inv SET val = val + 1 WHERE grp = 1",
		"SELECT val FROM inv WHERE id = 2",
		"BEGIN",
		"UPDATE inv SET val = 0 WHERE id = 1",
		"SELECT val FROM inv WHERE id = 1",
		"ROLLBACK",
		"SELECT val FROM inv WHERE id = 1",
		"BEGIN",
		"DELETE FROM inv WHERE grp = 0",
		"SELECT COUNT(*) FROM inv",
		"COMMIT",
		"SELECT COUNT(*) FROM inv",
		"SELECT id FROM inv WHERE val > 20",
	}
	for _, q := range workload {
		res, err := sess.Exec(q, nil)
		if err != nil {
			t.Fatalf("exec %q: %v", q, err)
		}
		if res != nil {
			results = append(results, fmt.Sprintf("%q -> %v", q, res.Rows))
		} else {
			results = append(results, fmt.Sprintf("%q -> ok", q))
		}
	}
	if !s.Flush(5 * time.Second) {
		t.Fatal("outbox did not drain")
	}
	table, ok := s.LAT("inv_lat")
	if !ok {
		t.Fatal("LAT vanished")
	}
	for _, row := range table.Rows() {
		latRows = append(latRows, fmt.Sprintf("%v", row))
	}
	return results, journal, latRows
}

// load2PLReference parses testdata/invariance_2pl.golden: "== section =="
// headers, one entry per line below each, "#" comment lines ignored.
func load2PLReference(t *testing.T) map[string][]string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "invariance_2pl.golden"))
	if err != nil {
		t.Fatal(err)
	}
	ref := map[string][]string{}
	section := ""
	for _, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "== "):
			section = strings.Trim(line, "= ")
		default:
			ref[section] = append(ref[section], line)
		}
	}
	return ref
}

// TestSingleSessionMVCCInvariance is the lock-schedule invariance pin: a
// fixed single-session trace must produce the statement results, rule
// journal and LAT contents the pure-2PL engine produced. The 2PL read path
// (shared table locks, heap reads) no longer exists; its output on this
// trace was recorded at the last commit that had it and is frozen in
// testdata/invariance_2pl.golden — deliberately with no -update path, so a
// drift can only be resolved by fixing the engine. Single-session traces
// never block, so the lock schedule is the only thing snapshot reads
// change — and nothing downstream may notice.
func TestSingleSessionMVCCInvariance(t *testing.T) {
	ref := load2PLReference(t)
	res, jr, lat := invarianceRun(t)

	diff := func(kind string, a, b []string) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: 2PL reference has %d entries, this build %d\n2PL: %v\nnow: %v", kind, len(a), len(b), a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s diverged at %d:\n  2PL: %s\n  now: %s", kind, i, a[i], b[i])
			}
		}
	}
	diff("statement results", ref["results"], res)
	diff("rule journal", ref["journal"], jr)
	diff("LAT rows", ref["lat"], lat)
	if len(lat) == 0 {
		t.Fatal("LAT ended empty — the invariance check checked nothing")
	}
}
