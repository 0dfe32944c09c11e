package baseline

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sqlcm/internal/engine"
)

func newEngine(t *testing.T) *engine.Engine {
	t.Helper()
	eng, err := engine.Open(engine.Config{LockTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

func seed(t *testing.T, eng *engine.Engine) {
	t.Helper()
	sess := eng.NewSession("seed", "t")
	if _, err := sess.Exec("CREATE TABLE data (id INT PRIMARY KEY, v FLOAT)", nil); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 500; i++ {
		if _, err := sess.Exec(fmt.Sprintf("INSERT INTO data VALUES (%d, %d.5)", i, i), nil); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTopKAndMissed(t *testing.T) {
	durs := map[string]time.Duration{
		"a": 5 * time.Millisecond,
		"b": 50 * time.Millisecond,
		"c": 500 * time.Millisecond,
		"d": 1 * time.Millisecond,
	}
	top := TopK(durs, 2)
	if len(top) != 2 || top[0].Text != "c" || top[1].Text != "b" {
		t.Fatalf("topk: %+v", top)
	}
	truth := []TopEntry{{Text: "c"}, {Text: "b"}, {Text: "x"}}
	if got := Missed(truth, top); got != 1 {
		t.Fatalf("missed: %d", got)
	}
	if got := Missed(nil, top); got != 0 {
		t.Fatalf("missed of empty truth: %d", got)
	}
}

func TestQueryLoggerRecordsAndRanks(t *testing.T) {
	eng := newEngine(t)
	seed(t, eng)
	logger, err := NewQueryLogger(eng, "query_log")
	if err != nil {
		t.Fatal(err)
	}
	if logger.Sync, err = os.Create(filepath.Join(t.TempDir(), "query_log")); err != nil {
		t.Fatal(err)
	}
	defer logger.Sync.Close()
	eng.SetHooks(logger)
	sess := eng.NewSession("u", "a")
	for i := 1; i <= 20; i++ {
		if _, err := sess.Exec(fmt.Sprintf("SELECT v FROM data WHERE id = %d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	// One obviously more expensive query.
	if _, err := sess.Exec("SELECT COUNT(*), SUM(v) FROM data", nil); err != nil {
		t.Fatal(err)
	}
	eng.SetHooks(nil)
	rows, err := eng.ReadTableDirect("query_log")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 21 {
		t.Fatalf("logged rows: %d", len(rows))
	}
	if st, err := logger.Sync.Stat(); err != nil || st.Size() == 0 {
		t.Fatalf("synchronous log file: %v, %v", st, err)
	}
	top, err := logger.TopK(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 5 {
		t.Fatalf("topk: %d", len(top))
	}
}

func TestPullerObservesLongRunningOnly(t *testing.T) {
	eng := newEngine(t)
	seed(t, eng)
	p := NewPuller(eng, 5*time.Millisecond)
	p.Start()

	// A short query between polls is likely missed; a blocked (long)
	// query is observed. MVCC reads never block, so the parked statement
	// is a second writer waiting on the first writer's X lock.
	w := eng.NewSession("writer", "a")
	if _, err := w.Exec("BEGIN", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Exec("UPDATE data SET v = 0 WHERE id = 1", nil); err != nil {
		t.Fatal(err)
	}
	waiter := eng.NewSession("waiter", "a")
	done := make(chan struct{})
	go func() {
		waiter.Exec("UPDATE data SET v = 2 WHERE id = 2", nil) //nolint:errcheck
		close(done)
	}()
	time.Sleep(60 * time.Millisecond)
	if _, err := w.Exec("COMMIT", nil); err != nil {
		t.Fatal(err)
	}
	<-done
	p.Stop()
	if p.Polls() < 5 {
		t.Fatalf("polls: %d", p.Polls())
	}
	top := p.TopK(10)
	found := false
	for _, e := range top {
		if e.Text == "UPDATE data SET v = 2 WHERE id = 2" && e.Duration > 30*time.Millisecond {
			found = true
		}
	}
	if !found {
		t.Fatalf("long query not observed: %+v", top)
	}
}

func TestHistoryRecorderExactAndBounded(t *testing.T) {
	eng := newEngine(t)
	seed(t, eng)
	rec := NewHistoryRecorder()
	eng.SetHooks(rec)
	sess := eng.NewSession("u", "a")
	for i := 1; i <= 30; i++ {
		if _, err := sess.Exec(fmt.Sprintf("SELECT v FROM data WHERE id = %d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	eng.SetHooks(nil)
	if rec.MaxHistoryBytes() == 0 {
		t.Fatal("no history memory counted")
	}
	n := rec.Drain()
	if n != 30 {
		t.Fatalf("drained: %d", n)
	}
	if rec.Drain() != 0 {
		t.Fatal("double drain returned rows")
	}
	top := rec.TopK(10)
	if len(top) == 0 {
		t.Fatal("no observations after drain")
	}
}

func TestHistoryPollerDrains(t *testing.T) {
	eng := newEngine(t)
	seed(t, eng)
	rec := NewHistoryRecorder()
	eng.SetHooks(rec)
	hp := NewHistoryPoller(rec, 10*time.Millisecond)
	hp.Start()
	sess := eng.NewSession("u", "a")
	for i := 1; i <= 20; i++ {
		if _, err := sess.Exec(fmt.Sprintf("SELECT v FROM data WHERE id = %d", i), nil); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	hp.Stop()
	eng.SetHooks(nil)
	top := rec.TopK(25)
	if len(top) != 20 {
		t.Fatalf("history observed %d distinct queries, want 20", len(top))
	}
}
