package server_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sqlcm"
	"sqlcm/internal/rules"
	"sqlcm/internal/server"
	"sqlcm/internal/server/errcode"
	"sqlcm/internal/testutil"
)

// cancelTap installs an ECA rule on Query.Cancelled that records every
// event's Cancel_Reason — the monitoring-side view of the server's
// defensive actions, exactly as a production rule would see them.
func cancelTap(t *testing.T, db *sqlcm.DB) func() []string {
	t.Helper()
	var mu sync.Mutex
	var reasons []string
	if _, err := db.NewRule("tap_cancelled", "Query.Cancelled", "",
		&sqlcm.FuncAction{Name: "tap", Fn: func(env rules.Env, ctx *rules.Ctx) error {
			if v, ok := ctx.Attr("Query.Cancel_Reason"); ok && !v.IsNull() {
				mu.Lock()
				reasons = append(reasons, v.Str())
				mu.Unlock()
			}
			return nil
		}}); err != nil {
		t.Fatal(err)
	}
	return func() []string {
		if !db.Flush(5 * time.Second) {
			t.Fatal("flush timed out")
		}
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), reasons...)
	}
}

// TestStatementTimeout: a statement blocked past the configured timeout
// is cancelled at its lock-wait boundary no earlier than the timeout and
// well before twice it, the client gets the retryable 57014, and exactly
// one Query.Cancelled event with Cancel_Reason 'timeout' reaches the
// rules.
func TestStatementTimeout(t *testing.T) {
	const st = 150 * time.Millisecond
	db, srv := startServer(t, func(c *server.Config) {
		c.StatementTimeout = st
	})
	reasons := cancelTap(t, db)

	setup := dial(t, srv)
	mustQuery(t, setup, "CREATE TABLE t (id INT PRIMARY KEY, v FLOAT)")
	mustQuery(t, setup, "INSERT INTO t VALUES (1, 1.0)")

	// An embedded session parks an exclusive lock on the row; the wire
	// statement below blocks on it until the timeout fires.
	holder := db.Session("holder", "admission_test")
	defer holder.Close() //nolint:errcheck
	if _, err := holder.Exec("BEGIN", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := holder.Exec("UPDATE t SET v = 2.0 WHERE id = 1", nil); err != nil {
		t.Fatal(err)
	}

	cli := dial(t, srv)
	start := time.Now()
	_, err := cli.Query("UPDATE t SET v = 3.0 WHERE id = 1")
	waited := time.Since(start)
	var we *server.WireError
	if !errors.As(err, &we) || we.Code != errcode.QueryCancelled.SQLSTATE {
		t.Fatalf("blocked statement: got %v, want WireError %s", err, errcode.QueryCancelled.SQLSTATE)
	}
	if waited < st {
		t.Fatalf("statement cancelled after %v, before StatementTimeout %v", waited, st)
	}
	if waited >= 2*st {
		t.Fatalf("statement cancelled after %v, not within twice StatementTimeout %v", waited, st)
	}

	// The connection survives its cancelled statement.
	if _, err := holder.Exec("COMMIT", nil); err != nil {
		t.Fatal(err)
	}
	if rows := mustQuery(t, cli, "SELECT v FROM t WHERE id = 1"); rows.Rows[0][0].Float() != 2.0 {
		t.Fatalf("cancelled update applied anyway: %v", rows.Rows[0][0])
	}

	if got := reasons(); len(got) != 1 || got[0] != "timeout" {
		t.Fatalf("Query.Cancelled reasons: %v, want exactly [timeout]", got)
	}
	if st := srv.Stats(); st.Cancelled != 1 {
		t.Fatalf("stats.Cancelled = %d, want 1", st.Cancelled)
	}
}

// TestStatementTimeoutReachesProcedureBody: the statement timeout of a
// wire EXEC reaches the statements of the procedure's body. The body
// writes two rows and then blocks on a row another session holds; the
// client gets the retryable 57014, exactly one Query.Cancelled event with
// Cancel_Reason 'timeout' fires, and none of the body's writes applies.
func TestStatementTimeoutReachesProcedureBody(t *testing.T) {
	db, srv := startServer(t, func(c *server.Config) {
		c.StatementTimeout = 150 * time.Millisecond
	})
	reasons := cancelTap(t, db)

	setup := dial(t, srv)
	mustQuery(t, setup, "CREATE TABLE t (id INT PRIMARY KEY, v FLOAT)")
	mustQuery(t, setup, "CREATE TABLE audit (id INT PRIMARY KEY)")
	mustQuery(t, setup, "INSERT INTO t VALUES (1, 1.0), (2, 1.0)")
	mustQuery(t, setup, `CREATE PROCEDURE touch_both () AS BEGIN
		UPDATE t SET v = 9.0 WHERE id = 2;
		INSERT INTO audit VALUES (1);
		UPDATE t SET v = 9.0 WHERE id = 1;
	END`)

	holder := db.Session("holder", "admission_test")
	defer holder.Close() //nolint:errcheck
	if _, err := holder.Exec("BEGIN", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := holder.Exec("UPDATE t SET v = 2.0 WHERE id = 1", nil); err != nil {
		t.Fatal(err)
	}

	cli := dial(t, srv)
	_, err := cli.Query("EXEC touch_both")
	var we *server.WireError
	if !errors.As(err, &we) || we.Code != errcode.QueryCancelled.SQLSTATE {
		t.Fatalf("blocked procedure: got %v, want WireError %s", err, errcode.QueryCancelled.SQLSTATE)
	}
	if _, err := holder.Exec("COMMIT", nil); err != nil {
		t.Fatal(err)
	}
	if rows := mustQuery(t, cli, "SELECT v FROM t WHERE id = 2"); rows.Rows[0][0].Float() != 1.0 {
		t.Fatalf("cancelled procedure's first update applied: v = %v", rows.Rows[0][0])
	}
	if rows := mustQuery(t, cli, "SELECT id FROM audit"); len(rows.Rows) != 0 {
		t.Fatalf("cancelled procedure's insert applied: %d rows", len(rows.Rows))
	}
	if got := reasons(); len(got) != 1 || got[0] != "timeout" {
		t.Fatalf("Query.Cancelled reasons: %v, want exactly [timeout]", got)
	}
	if st := srv.Stats(); st.Cancelled != 1 {
		t.Fatalf("stats.Cancelled = %d, want 1", st.Cancelled)
	}
}

// TestStatementShed: with the overload predicate asserted, statements are
// refused with the retryable 53400 on both protocol paths, each refusal
// is a Query.Cancelled event with reason 'shed', and deasserting the
// predicate restores service on the same connection.
func TestStatementShed(t *testing.T) {
	var overloaded atomic.Bool
	db, srv := startServer(t, func(c *server.Config) {
		c.Overloaded = overloaded.Load
	})
	reasons := cancelTap(t, db)

	cli := dial(t, srv)
	mustQuery(t, cli, "CREATE TABLE t (id INT PRIMARY KEY)")
	mustQuery(t, cli, "INSERT INTO t VALUES (1)")
	if err := cli.Prepare("sel", "SELECT id FROM t"); err != nil {
		t.Fatal(err)
	}

	overloaded.Store(true)
	var we *server.WireError
	if _, err := cli.Query("SELECT id FROM t"); !errors.As(err, &we) || we.Code != errcode.Overloaded.SQLSTATE {
		t.Fatalf("simple query under overload: got %v, want WireError %s", err, errcode.Overloaded.SQLSTATE)
	}
	if _, err := cli.ExecPrepared("sel"); !errors.As(err, &we) || we.Code != errcode.Overloaded.SQLSTATE {
		t.Fatalf("extended query under overload: got %v, want WireError %s", err, errcode.Overloaded.SQLSTATE)
	}

	overloaded.Store(false)
	rows, err := cli.Query("SELECT id FROM t")
	if err != nil || len(rows.Rows) != 1 {
		t.Fatalf("query after overload cleared: %v %+v", err, rows)
	}

	if st := srv.Stats(); st.Shed != 2 {
		t.Fatalf("stats.Shed = %d, want 2", st.Shed)
	}
	got := reasons()
	if len(got) != 2 {
		t.Fatalf("Query.Cancelled events: %v, want two", got)
	}
	for _, r := range got {
		if r != "shed" {
			t.Fatalf("Cancel_Reason = %q, want shed", r)
		}
	}
}

// TestAdmissionBackpressure: at MaxConns a new connection waits in the
// backpressure window instead of being refused, and is admitted the
// moment a slot frees. Nothing is rejected.
func TestAdmissionBackpressure(t *testing.T) {
	_, srv := startServer(t, func(c *server.Config) {
		c.MaxConns = 1
		c.AdmissionWait = 5 * time.Second
	})
	first, err := server.Dial(srv.Addr().String(), server.ClientConfig{User: "first"})
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		cli *server.Client
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		cli, err := server.Dial(srv.Addr().String(), server.ClientConfig{User: "second"})
		done <- outcome{cli, err}
	}()

	// The second dial must be parked in the admission wait, not refused.
	select {
	case o := <-done:
		if o.err == nil {
			o.cli.Close() //nolint:errcheck
		}
		t.Fatalf("second connection resolved while the slot was held: err=%v", o.err)
	case <-time.After(200 * time.Millisecond):
	}

	first.Close() //nolint:errcheck
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatalf("second connection after slot freed: %v", o.err)
		}
		if _, err := o.cli.Query("CREATE TABLE bp (id INT PRIMARY KEY)"); err != nil {
			t.Fatalf("query on admitted connection: %v", err)
		}
		o.cli.Close() //nolint:errcheck
	case <-time.After(5 * time.Second):
		t.Fatal("second connection never admitted after the slot freed")
	}

	if st := srv.Stats(); st.Rejected != 0 || st.Accepted != 2 {
		t.Fatalf("stats: %+v, want 2 accepted / 0 rejected", st)
	}
}

// TestDrainCancelsInFlight: a statement still running when Shutdown's
// graceful window lapses is cancelled with reason 'drain' — its client
// gets the retryable 57014 and the drain completes without force-closes.
func TestDrainCancelsInFlight(t *testing.T) {
	db, srv := startServer(t, nil)
	defer testutil.CheckLeaks(t)()
	reasons := cancelTap(t, db)

	setup := db.Session("setup", "admission_test")
	defer setup.Close() //nolint:errcheck
	if _, err := setup.Exec("CREATE TABLE t (id INT PRIMARY KEY, v FLOAT)", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := setup.Exec("INSERT INTO t VALUES (1, 1.0)", nil); err != nil {
		t.Fatal(err)
	}
	// The lock holder is an embedded session, outside the server's drain
	// reach, so the wire statement below stays blocked through the whole
	// graceful window.
	holder := db.Session("holder", "admission_test")
	defer holder.Close() //nolint:errcheck
	if _, err := holder.Exec("BEGIN", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := holder.Exec("UPDATE t SET v = 2.0 WHERE id = 1", nil); err != nil {
		t.Fatal(err)
	}

	cli, err := server.Dial(srv.Addr().String(), server.ClientConfig{User: "victim"})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close() //nolint:errcheck
	queryErr := make(chan error, 1)
	go func() {
		_, err := cli.Query("UPDATE t SET v = 3.0 WHERE id = 1")
		queryErr <- err
	}()

	// Wait for the statement to park on the lock before shutting down.
	deadline := time.Now().Add(5 * time.Second)
	for {
		blocked := false
		for _, q := range db.ActiveQueries() {
			if q.User == "victim" {
				blocked = true
			}
		}
		if blocked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim statement never started")
		}
		time.Sleep(time.Millisecond)
	}

	if err := srv.Shutdown(2 * time.Second); err != nil {
		t.Fatalf("shutdown force-closed connections: %v", err)
	}
	var we *server.WireError
	if err := <-queryErr; !errors.As(err, &we) || we.Code != errcode.QueryCancelled.SQLSTATE {
		t.Fatalf("drained statement: got %v, want WireError %s", err, errcode.QueryCancelled.SQLSTATE)
	}
	if _, err := holder.Exec("ROLLBACK", nil); err != nil {
		t.Fatal(err)
	}

	if got := reasons(); len(got) != 1 || got[0] != "drain" {
		t.Fatalf("Query.Cancelled reasons: %v, want exactly [drain]", got)
	}
	if st := srv.Stats(); st.Cancelled != 1 {
		t.Fatalf("stats.Cancelled = %d, want 1", st.Cancelled)
	}
}
