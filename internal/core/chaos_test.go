package core

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sqlcm/internal/engine"
	"sqlcm/internal/faults"
	"sqlcm/internal/lat"
	"sqlcm/internal/outbox"
	"sqlcm/internal/rules"
	"sqlcm/internal/sqltypes"
)

// Chaos tests: inject panics, hangs, and flaky storage into the monitoring
// layer and assert the two fail-safe invariants — queries never fail or
// block because monitoring is sick, and a LAT reloaded from a torn
// PersistLAT snapshot double-counts no group.

func chaosEngine(t *testing.T) (*engine.Engine, *engine.Session) {
	t.Helper()
	eng, err := engine.Open(engine.Config{LockTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	sess := eng.NewSession("dba", "app")
	mustExec(t, sess, "CREATE TABLE chaos_t (id INT PRIMARY KEY, v FLOAT)")
	for i := 1; i <= 20; i++ {
		mustExec(t, sess, fmt.Sprintf("INSERT INTO chaos_t VALUES (%d, %g)", i, float64(i)))
	}
	return eng, sess
}

func TestChaosPanickingRuleQuarantined(t *testing.T) {
	eng, sess := chaosEngine(t)
	s := Attach(eng, Options{})
	t.Cleanup(func() { s.Detach() })

	var healthy, quarantined atomic.Int64
	if _, err := s.NewRule("boom", "Query.Commit", "",
		&rules.FuncAction{Fn: func(rules.Env, *rules.Ctx) error { panic("chaos") }},
	); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewRule("healthy", "Query.Commit", "",
		&rules.FuncAction{Fn: func(rules.Env, *rules.Ctx) error { healthy.Add(1); return nil }},
	); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewRule("watch", "Monitor.RuleQuarantined", "",
		&rules.FuncAction{Fn: func(rules.Env, *rules.Ctx) error { quarantined.Add(1); return nil }},
	); err != nil {
		t.Fatal(err)
	}

	// Every query must succeed even while a rule panics on each commit.
	for i := 0; i < 10; i++ {
		mustExec(t, sess, "SELECT COUNT(*) FROM chaos_t")
	}
	if !s.Rules().Quarantined("boom") {
		t.Fatal("panicking rule not quarantined")
	}
	if got := s.Rules().Stats().Panics; got != 3 {
		t.Fatalf("panics: %d, want 3 (quarantine threshold)", got)
	}
	if healthy.Load() != 10 {
		t.Fatalf("healthy rule fired %d/10", healthy.Load())
	}
	if quarantined.Load() != 1 {
		t.Fatalf("Monitor.RuleQuarantined fired %d times", quarantined.Load())
	}

	// Reinstate: the rule runs (and panics) again, and is re-quarantined.
	if !s.Rules().Reinstate("boom") {
		t.Fatal("reinstate failed")
	}
	for i := 0; i < 5; i++ {
		mustExec(t, sess, "SELECT COUNT(*) FROM chaos_t")
	}
	if !s.Rules().Quarantined("boom") {
		t.Fatal("reinstated rule not re-quarantined")
	}
	if quarantined.Load() != 2 {
		t.Fatalf("quarantine events: %d, want 2", quarantined.Load())
	}
}

func TestChaosHungExternalDeadLetters(t *testing.T) {
	eng, sess := chaosEngine(t)
	runner := &faults.HungRunner{}
	runner.Hang()
	t.Cleanup(runner.Release)
	s := Attach(eng, Options{
		Runner: runner,
		outbox: outbox.Config{
			AttemptTimeout: 30 * time.Millisecond,
			MaxAttempts:    2,
			BaseBackoff:    time.Millisecond,
			DrainTimeout:   500 * time.Millisecond,
		},
	})
	t.Cleanup(func() { s.Detach() })
	if _, err := s.NewRule("ext", "Query.Commit", "",
		&rules.RunExternalAction{Command: "analyze --run"},
	); err != nil {
		t.Fatal(err)
	}

	// The hung external must not block the query thread.
	start := time.Now()
	mustExec(t, sess, "SELECT COUNT(*) FROM chaos_t")
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("query blocked behind hung external: %v", elapsed)
	}
	flush(t, s)
	ks := s.Outbox().Stats().ByKind[outbox.External]
	if ks.Timeouts < 2 || ks.DeadLetters != 1 {
		t.Fatalf("timeouts=%d deadletters=%d, want 2 and 1", ks.Timeouts, ks.DeadLetters)
	}
	dl := s.Outbox().DeadLetters()
	if len(dl) != 1 || !strings.Contains(dl[0].Err, outbox.ErrAttemptTimeout.Error()) {
		t.Fatalf("dead letters: %+v", dl)
	}
}

func TestChaosFlakyPersistRetries(t *testing.T) {
	eng, sess := chaosEngine(t)
	fp := &faults.FlakyPersister{Inner: NewEnginePersister(eng)}
	s := Attach(eng, Options{
		Persister: fp,
		outbox: outbox.Config{
			MaxAttempts: 5,
			BaseBackoff: time.Millisecond,
		},
	})
	t.Cleanup(func() { s.Detach() })
	if _, err := s.NewRule("p", "Query.Commit", "",
		&rules.PersistAction{Table: "chaos_p", Attrs: []string{"ID", "Duration"}},
	); err != nil {
		t.Fatal(err)
	}

	fp.FailNext(2) // transient outage: first two attempts fail
	mustExec(t, sess, "SELECT COUNT(*) FROM chaos_t")
	flush(t, s)
	rows, err := eng.ReadTableDirect("chaos_p")
	if err != nil || len(rows) != 1 {
		t.Fatalf("persisted rows: %v, %v", rows, err)
	}
	ks := s.Outbox().Stats().ByKind[outbox.Persist]
	if ks.Retries < 2 || ks.DeadLetters != 0 || ks.Done != 1 {
		t.Fatalf("retries=%d deadletters=%d done=%d", ks.Retries, ks.DeadLetters, ks.Done)
	}
}

func TestChaosTornPersistLATRestoresNewestPerGroup(t *testing.T) {
	eng, _ := chaosEngine(t)
	fp := &faults.FlakyPersister{Inner: NewEnginePersister(eng)}
	s := Attach(eng, Options{Persister: fp})
	t.Cleanup(func() { s.Detach() })
	spec := lat.Spec{
		Name:    "PerUser",
		GroupBy: []string{"User"},
		Aggs:    []lat.AggCol{{Func: lat.Count, Name: "N"}},
	}
	if _, err := s.DefineLAT(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewRule("count", "Query.Commit", "", &rules.InsertAction{LAT: "PerUser"}); err != nil {
		t.Fatal(err)
	}
	users := []string{"u1", "u2", "u3"}
	observe := func(times int) {
		for _, u := range users {
			sess := eng.NewSession(u, "app")
			for i := 0; i < times; i++ {
				mustExec(t, sess, "SELECT COUNT(*) FROM chaos_t")
			}
		}
	}
	counts := func(rows [][]sqltypes.Value) map[string]int64 {
		out := make(map[string]int64, len(rows))
		for _, r := range rows {
			out[r[0].Str()] = r[1].Int()
		}
		return out
	}
	lt, _ := s.LAT("PerUser")

	// Snapshot 1 lands whole: 2 observations per user.
	observe(2)
	first := counts(lt.Rows())
	if err := s.PersistLAT("PerUser", "per_user"); err != nil {
		t.Fatal(err)
	}
	// Snapshot 2 (5 per user) tears after its first row.
	observe(3)
	second := counts(lt.Rows())
	fp.FailCallsAfter(1)
	if err := s.PersistLAT("PerUser", "per_user"); err == nil {
		t.Fatal("torn PersistLAT reported no error")
	}
	fp.Reset()
	persisted, err := eng.ReadTableDirect("per_user")
	if err != nil || len(persisted) != len(users)+1 {
		t.Fatalf("persisted rows: %d, %v; want %d", len(persisted), err, len(users)+1)
	}
	torn := persisted[len(users)][0].Str()

	// Reload: the group whose row landed comes back from snapshot 2, the
	// others from snapshot 1; no group sums both snapshots.
	s.DropLAT("PerUser")
	if _, err := s.DefineLAT(spec); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadLAT("PerUser", "per_user"); err != nil {
		t.Fatal(err)
	}
	lt, _ = s.LAT("PerUser")
	got := counts(lt.Rows())
	if len(got) != len(users) {
		t.Fatalf("restored groups: %v, want %d", got, len(users))
	}
	for _, u := range users {
		want := first[u]
		if u == torn {
			want = second[u]
		}
		if got[u] != want {
			t.Errorf("group %s restored N=%d, want %d (snapshot 1: %d, snapshot 2: %d)",
				u, got[u], want, first[u], second[u])
		}
	}
}

func TestChaosOverloadShedsNotBlocks(t *testing.T) {
	eng, sess := chaosEngine(t)
	s := Attach(eng, Options{DispatchBudget: 5 * time.Microsecond})
	t.Cleanup(func() { s.Detach() })
	if _, err := s.NewRule("slow", "Query.Commit", "",
		&rules.FuncAction{Fn: func(rules.Env, *rules.Ctx) error {
			time.Sleep(200 * time.Microsecond)
			return nil
		}},
	); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 150; i++ {
		mustExec(t, sess, "SELECT COUNT(*) FROM chaos_t")
	}
	if !s.Bus().Degraded() {
		t.Fatal("bus never degraded under a blown dispatch budget")
	}
	if s.Bus().ShedTotal() == 0 {
		t.Fatal("no events shed in degraded mode")
	}
}

func TestChaosOutboxShedsLowPriority(t *testing.T) {
	eng, sess := chaosEngine(t)
	runner := &faults.HungRunner{}
	runner.Hang()
	t.Cleanup(runner.Release)
	s := Attach(eng, Options{
		Runner: runner,
		outbox: outbox.Config{
			QueueSize:      4,
			AttemptTimeout: 10 * time.Second,
			DrainTimeout:   100 * time.Millisecond,
		},
	})
	if _, err := s.NewRule("ext", "Query.Commit", "",
		&rules.RunExternalAction{Command: "report"},
	); err != nil {
		t.Fatal(err)
	}
	// The worker wedges on the first hung job; the tiny queue fills; later
	// low-priority actions are shed instead of stalling the query thread.
	start := time.Now()
	for i := 0; i < 20; i++ {
		mustExec(t, sess, "SELECT COUNT(*) FROM chaos_t")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("queries stalled behind a full outbox: %v", elapsed)
	}
	ks := s.Outbox().Stats().ByKind[outbox.External]
	if ks.Shed == 0 {
		t.Fatal("full outbox shed nothing")
	}
	runner.Release()
	if err := s.Detach(); err != nil {
		t.Fatal(err)
	}
}

// All faults at once: a panicking rule, an external action stuck behind a
// hung runner with a tiny queue, and a dispatch budget no rule can meet,
// next to a healthy LAT-maintenance rule. Every query still succeeds; the
// damage shows only in the quarantine, shed and dead-letter counters.
func TestChaosCombinedFaultsFailNoQuery(t *testing.T) {
	eng, sess := chaosEngine(t)
	runner := &faults.HungRunner{}
	runner.Hang()
	t.Cleanup(runner.Release)
	s := Attach(eng, Options{
		Runner:         runner,
		DispatchBudget: 2 * time.Microsecond,
		outbox: outbox.Config{
			QueueSize:      8,
			AttemptTimeout: 50 * time.Millisecond,
			MaxAttempts:    2,
			DrainTimeout:   2 * time.Second,
		},
	})
	if _, err := s.DefineLAT(lat.Spec{
		Name:    "PerID",
		GroupBy: []string{"ID"},
		Aggs:    []lat.AggCol{{Func: lat.Avg, Attr: "Duration", Name: "D"}},
	}); err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		name   string
		action rules.Action
	}{
		{"healthy", &rules.InsertAction{LAT: "PerID"}},
		{"boom", &rules.FuncAction{Fn: func(rules.Env, *rules.Ctx) error { panic("chaos") }}},
		{"hung", &rules.RunExternalAction{Command: "stuck-analyzer"}},
	} {
		if _, err := s.NewRule(r.name, "Query.Commit", "", r.action); err != nil {
			t.Fatal(err)
		}
	}

	for i := 0; i < 2000; i++ {
		mustExec(t, sess, fmt.Sprintf("SELECT v FROM chaos_t WHERE id = %d", i%20+1))
	}
	if got := s.Rules().QuarantinedRules(); len(got) != 1 || got[0] != "boom" {
		t.Fatalf("quarantined rules: %v, want [boom]", got)
	}
	if s.Bus().ShedTotal() == 0 {
		t.Fatal("no events shed under a blown dispatch budget")
	}
	ks := s.Outbox().Stats().ByKind[outbox.External]
	if ks.Shed+ks.DeadLetters == 0 {
		t.Fatal("hung external neither shed nor dead-lettered")
	}
	runner.Release() // free hung attempts so detach can drain
	if err := s.Detach(); err != nil {
		t.Fatalf("detach: %v", err)
	}
}

func TestEvictionsDuringPersistLAT(t *testing.T) {
	eng, sess := chaosEngine(t)
	s := Attach(eng, Options{})
	t.Cleanup(func() { s.Detach() })
	if _, err := s.DefineLAT(lat.Spec{
		Name:    "Small",
		GroupBy: []string{"ID"},
		Aggs:    []lat.AggCol{{Func: lat.Max, Attr: "Duration", Name: "D"}},
		OrderBy: []lat.OrderKey{{Col: "D", Desc: true}},
		MaxRows: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewRule("fill", "Query.Commit", "", &rules.InsertAction{LAT: "Small"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewRule("spill", "LATRow.Evicted", "",
		&rules.PersistAction{Table: "evict_spill", Attrs: []string{"ID", "D"}},
	); err != nil {
		t.Fatal(err)
	}

	// Fill the table to its bound, then race snapshots against inserts
	// that evict rows through the bus.
	for i := 0; i < 2; i++ {
		mustExec(t, sess, fmt.Sprintf("SELECT v FROM chaos_t WHERE id = %d", i+1))
	}
	stop := make(chan struct{})
	type result struct {
		snapshots int
		err       error
	}
	done := make(chan result, 1)
	go func() {
		var r result
		for {
			if r.err = s.PersistLAT("Small", "small_snap"); r.err != nil {
				break
			}
			r.snapshots++
			select {
			case <-stop:
				done <- r
				return
			default:
			}
		}
		done <- r
	}()
	for i := 2; i < 100; i++ {
		mustExec(t, sess, fmt.Sprintf("SELECT v FROM chaos_t WHERE id = %d", i+1))
	}
	close(stop)
	r := <-done
	if r.err != nil {
		t.Fatalf("PersistLAT during evictions: %v", r.err)
	}
	flush(t, s)
	rows, err := eng.ReadTableDirect("evict_spill")
	if err != nil || len(rows) == 0 {
		t.Fatalf("evicted rows not persisted: %v, %v", rows, err)
	}
	// Every snapshot is whole and within the bound: two rows each.
	snap, err := eng.ReadTableDirect("small_snap")
	if err != nil || len(snap) != 2*r.snapshots {
		t.Fatalf("%d snapshots wrote %d rows (%v), want %d", r.snapshots, len(snap), err, 2*r.snapshots)
	}
	lt, _ := s.LAT("Small")
	if lt.Len() > 2 {
		t.Fatalf("LAT exceeded MaxRows: %d", lt.Len())
	}
	// Quiescent, a snapshot is exactly the table.
	if err := s.PersistLAT("Small", "small_final"); err != nil {
		t.Fatal(err)
	}
	final, err := eng.ReadTableDirect("small_final")
	if err != nil {
		t.Fatal(err)
	}
	live := lt.Rows()
	if len(final) != len(live) {
		t.Fatalf("final snapshot %d rows, LAT has %d", len(final), len(live))
	}
	for i, r := range live {
		for c := range r {
			if sqltypes.Compare(final[i][c], r[c]) != 0 {
				t.Fatalf("final snapshot row %d = %v, LAT row %v", i, final[i], r)
			}
		}
	}
}
