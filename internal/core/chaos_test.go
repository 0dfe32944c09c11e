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
)

// Chaos tests: inject panics, hangs, and flaky storage into the monitoring
// layer and assert the two fail-safe invariants — queries never fail or
// block because monitoring is sick, and checkpoint/restore never loses or
// double-counts LAT observations.

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
	s := Attach(eng, Options{Failsafe: FailsafeOptions{QuarantineThreshold: 3}})
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
		Failsafe: FailsafeOptions{Outbox: outbox.Config{
			AttemptTimeout: 30 * time.Millisecond,
			MaxAttempts:    2,
			BaseBackoff:    time.Millisecond,
			DrainTimeout:   500 * time.Millisecond,
		}},
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
		Failsafe: FailsafeOptions{Outbox: outbox.Config{
			MaxAttempts: 5,
			BaseBackoff: time.Millisecond,
		}},
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

// countQC returns the single-group COUNT value of the "QC" LAT.
func countQC(t *testing.T, s *SQLCM) int64 {
	t.Helper()
	lt, ok := s.LAT("QC")
	if !ok {
		t.Fatal("no QC LAT")
	}
	rows := lt.Rows()
	if len(rows) != 1 {
		t.Fatalf("QC rows: %d, want 1", len(rows))
	}
	return rows[0][1].Int()
}

func TestChaosCheckpointKillRestart(t *testing.T) {
	eng, sess := chaosEngine(t)
	spec := lat.Spec{
		Name:    "QC",
		GroupBy: []string{"User"},
		Aggs:    []lat.AggCol{{Func: lat.Count, Name: "N"}},
	}
	fp := &faults.FlakyPersister{Inner: NewEnginePersister(eng)}

	boot := func() *SQLCM {
		s := Attach(eng, Options{Persister: fp})
		if _, err := s.DefineLAT(spec); err != nil {
			t.Fatal(err)
		}
		if err := s.MarkForCheckpoint("QC", "qc_ckpt"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.NewRule("count", "Query.Commit", "", &rules.InsertAction{LAT: "QC"}); err != nil {
			t.Fatal(err)
		}
		return s
	}

	// Generation 1: 10 observations, cleanly checkpointed.
	s1 := boot()
	for i := 0; i < 10; i++ {
		mustExec(t, sess, "SELECT COUNT(*) FROM chaos_t")
	}
	if err := s1.CheckpointNow("QC"); err != nil {
		t.Fatal(err)
	}
	// 5 more observations, then a checkpoint that dies between its data
	// rows and the meta row — the commit point is never reached.
	for i := 0; i < 5; i++ {
		mustExec(t, sess, "SELECT COUNT(*) FROM chaos_t")
	}
	fp.FailCallsAfter(1) // the lone data row lands, the meta row fails
	if err := s1.CheckpointNow("QC"); err == nil {
		t.Fatal("mid-checkpoint crash not reported")
	}
	fp.Reset()
	// Crash: hooks torn off with no graceful drain or final checkpoint.
	s1.Suspend()

	// Restart: the torn generation 2 must be ignored; exactly the 10
	// committed observations come back — none lost, none double-counted.
	s2 := boot()
	if got := countQC(t, s2); got != 10 {
		t.Fatalf("restored count %d, want 10", got)
	}
	for i := 0; i < 3; i++ {
		mustExec(t, sess, "SELECT COUNT(*) FROM chaos_t")
	}
	if err := s2.CheckpointNow("QC"); err != nil {
		t.Fatal(err)
	}
	s2.Suspend()

	// Second restart: the new checkpoint superseded both the stale torn
	// rows and generation 1.
	s3 := boot()
	if got := countQC(t, s3); got != 13 {
		t.Fatalf("restored count %d, want 13", got)
	}
	if err := s3.Detach(); err != nil {
		t.Fatal(err)
	}
}

func TestChaosOverloadShedsNotBlocks(t *testing.T) {
	eng, sess := chaosEngine(t)
	s := Attach(eng, Options{Failsafe: FailsafeOptions{
		DispatchBudget: 5 * time.Microsecond,
		ShedSampleN:    4,
	}})
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
		Failsafe: FailsafeOptions{Outbox: outbox.Config{
			QueueSize:      4,
			AttemptTimeout: 10 * time.Second,
			DrainTimeout:   100 * time.Millisecond,
		}},
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

func TestEvictionsDuringCheckpoint(t *testing.T) {
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
	if err := s.MarkForCheckpoint("Small", "small_ckpt"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewRule("fill", "Query.Commit", "", &rules.InsertAction{LAT: "Small"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewRule("spill", "LATRow.Evicted", "",
		&rules.PersistAction{Table: "evict_ckpt", Attrs: []string{"ID", "D"}},
	); err != nil {
		t.Fatal(err)
	}

	// Checkpoints race against inserts that evict rows through the bus.
	done := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < 50 && err == nil; i++ {
			err = s.CheckpointNow("Small")
		}
		done <- err
	}()
	for i := 0; i < 100; i++ {
		mustExec(t, sess, fmt.Sprintf("SELECT v FROM chaos_t WHERE id = %d", i+1))
	}
	if err := <-done; err != nil {
		t.Fatalf("checkpoint during evictions: %v", err)
	}
	flush(t, s)
	rows, err := eng.ReadTableDirect("evict_ckpt")
	if err != nil || len(rows) == 0 {
		t.Fatalf("evicted rows not persisted: %v, %v", rows, err)
	}
	// The table stayed within bounds and is still checkpointable.
	if err := s.CheckpointNow("Small"); err != nil {
		t.Fatal(err)
	}
	lt, _ := s.LAT("Small")
	if lt.Len() > 2 {
		t.Fatalf("LAT exceeded MaxRows: %d", lt.Len())
	}
}
