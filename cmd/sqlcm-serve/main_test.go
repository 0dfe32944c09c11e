package main

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"sqlcm"
	"sqlcm/internal/rules"
	"sqlcm/internal/server"
	"sqlcm/internal/server/errcode"
)

// TestShedRefusesStatementsOverBudget: with -shed set, a rule slower than
// the budget drives the monitor's dispatch average over it, and a later
// statement is refused with the retryable 53400. While shedding, one
// statement in shedProbe still runs, so once the rule is fast again the
// average recovers and shedding stops.
func TestShedRefusesStatementsOverBudget(t *testing.T) {
	o := options{addr: "127.0.0.1:0", monitor: true, shed: time.Millisecond}
	db, err := openDB(o)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close() //nolint:errcheck
	var slow atomic.Bool
	slow.Store(true)
	if _, err := db.NewRule("slow", "Query.Commit", "", &sqlcm.FuncAction{
		Fn: func(rules.Env, *rules.Ctx) error {
			if slow.Load() {
				time.Sleep(5 * time.Millisecond)
			}
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	cfg, err := serverConfig(o, db)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(5 * time.Second) //nolint:errcheck
	cli, err := server.Dial(srv.Addr().String(), server.ClientConfig{User: "u"})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close() //nolint:errcheck
	if _, err := cli.Query("CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	shed := func(i int) bool {
		_, err := cli.Query("SELECT id FROM t")
		if err == nil {
			return false
		}
		var we *server.WireError
		if !errors.As(err, &we) || we.Code != errcode.Overloaded.SQLSTATE {
			t.Fatalf("statement %d: got %v, want WireError %s", i, err, errcode.Overloaded.SQLSTATE)
		}
		return true
	}

	first := -1
	for i := 0; i < 100 && first < 0; i++ {
		if shed(i) {
			first = i
		}
	}
	if first < 0 {
		t.Fatalf("no statement shed after 100 over a %v budget (degraded=%v)", o.shed, db.Monitor().Bus().Degraded())
	}
	if st := srv.Stats(); st.Shed == 0 {
		t.Fatal("refused with 53400 but stats.Shed = 0")
	}

	slow.Store(false)
	ran := 0
	for i := 0; i < 50000 && db.Monitor().Bus().Degraded(); i++ {
		if !shed(i) {
			ran++
		}
	}
	if db.Monitor().Bus().Degraded() {
		t.Fatalf("still degraded after 50000 statements with a fast rule (%d ran)", ran)
	}
	if ran == 0 {
		t.Fatal("recovered without running a statement")
	}
	for i := 0; i < 10; i++ {
		if shed(i) {
			t.Fatalf("statement %d shed after the bus recovered", i)
		}
	}
}
