package server_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sqlcm"
	"sqlcm/internal/outbox"
	"sqlcm/internal/rules"
	"sqlcm/internal/server"
	"sqlcm/internal/server/errcode"
	"sqlcm/internal/sqltypes"
	"sqlcm/internal/testutil"
)

// startServer brings up a monitored DB behind an in-process listener on a
// free port. Shutdown and Close are the caller's business only when the
// test says so; cleanup is always safe because both are idempotent.
func startServer(t *testing.T, mut func(*server.Config)) (*sqlcm.DB, *server.Server) {
	t.Helper()
	db, err := sqlcm.Open(sqlcm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := server.Config{
		Addr:       "127.0.0.1:0",
		NewSession: db.RemoteSession,
		Drain:      db.Flush,
	}
	if mut != nil {
		mut(&cfg)
	}
	srv, err := server.New(cfg)
	if err != nil {
		db.Close() //nolint:errcheck
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		db.Close() //nolint:errcheck
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Shutdown(5 * time.Second) //nolint:errcheck
		db.Close()                    //nolint:errcheck
	})
	return db, srv
}

func dial(t *testing.T, srv *server.Server) *server.Client {
	t.Helper()
	cli, err := server.Dial(srv.Addr().String(), server.ClientConfig{User: "tester", App: "server_test"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() }) //nolint:errcheck
	return cli
}

func TestWireSimpleQuery(t *testing.T) {
	_, srv := startServer(t, nil)
	cli := dial(t, srv)

	if _, err := cli.Query("CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR, v FLOAT)"); err != nil {
		t.Fatalf("ddl: %v", err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := cli.Query(fmt.Sprintf("INSERT INTO t VALUES (%d, 'row%d', %d.5)", i, i, i)); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	rows, err := cli.Query("SELECT id, name, v FROM t ORDER BY id")
	if err != nil {
		t.Fatalf("select: %v", err)
	}
	if len(rows.Rows) != 3 || len(rows.Columns) != 3 {
		t.Fatalf("rows: %+v", rows)
	}
	if rows.Columns[1] != "name" || rows.Rows[0][1].Str() != "row1" {
		t.Fatalf("row decode: %+v", rows.Rows[0])
	}
	if rows.Rows[2][2].Float() != 3.5 {
		t.Fatalf("float decode: %v", rows.Rows[2][2])
	}
	if rows.Tag != "SELECT 3" {
		t.Fatalf("tag: %q", rows.Tag)
	}

	// Empty query is acknowledged, not an error.
	if _, err := cli.Query(""); err != nil {
		t.Fatalf("empty query: %v", err)
	}

	// A statement error arrives as a WireError with the generic execution
	// code, and the connection stays usable.
	_, err = cli.Query("SELECT nope FROM nothing")
	var we *server.WireError
	if !errors.As(err, &we) || we.Code != errcode.SyntaxOrExec.SQLSTATE {
		t.Fatalf("bad sql: got %v, want WireError %s", err, errcode.SyntaxOrExec.SQLSTATE)
	}
	if rows, err = cli.Query("SELECT COUNT(*) FROM t"); err != nil || rows.Rows[0][0].Int() != 3 {
		t.Fatalf("connection unusable after error: %v %+v", err, rows)
	}
}

func TestWirePreparedStatements(t *testing.T) {
	_, srv := startServer(t, nil)
	cli := dial(t, srv)
	mustQuery(t, cli, "CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR)")
	mustQuery(t, cli, "INSERT INTO t VALUES (1, 'one')")
	mustQuery(t, cli, "INSERT INTO t VALUES (2, 'two')")

	if err := cli.Prepare("by_id", "SELECT name FROM t WHERE id = @id", sqltypes.KindInt); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	for i, want := range []string{"one", "two"} {
		rows, err := cli.ExecPrepared("by_id", sqltypes.NewInt(int64(i+1)))
		if err != nil {
			t.Fatalf("exec prepared: %v", err)
		}
		if len(rows.Rows) != 1 || rows.Rows[0][0].Str() != want {
			t.Fatalf("prepared row %d: %+v", i, rows.Rows)
		}
	}

	// NULL parameter binds as NULL.
	if err := cli.Prepare("ins", "INSERT INTO t VALUES (@id, @name)", sqltypes.KindInt, sqltypes.KindString); err != nil {
		t.Fatalf("prepare ins: %v", err)
	}
	if _, err := cli.ExecPrepared("ins", sqltypes.NewInt(3), sqltypes.Null); err != nil {
		t.Fatalf("exec with NULL: %v", err)
	}
	rows := mustQuery(t, cli, "SELECT name FROM t WHERE id = 3")
	if !rows.Rows[0][0].IsNull() {
		t.Fatalf("NULL round trip: %v", rows.Rows[0][0])
	}

	// Extended-protocol errors surface as WireError and recover on Sync
	// (the client syncs per call), leaving the connection usable.
	var we *server.WireError
	if _, err := cli.ExecPrepared("no_such_stmt"); !errors.As(err, &we) || we.Code != errcode.UndefinedStmt.SQLSTATE {
		t.Fatalf("unknown stmt: %v", err)
	}
	if err := cli.Prepare("by_id", "SELECT 1", 0); !errors.As(err, &we) || we.Code != errcode.DuplicateStmt.SQLSTATE {
		t.Fatalf("duplicate stmt: %v", err)
	}
	if err := cli.Prepare("bad", "SELECT FROM WHERE"); !errors.As(err, &we) || we.Code != errcode.SyntaxOrExec.SQLSTATE {
		t.Fatalf("bad prepare: %v", err)
	}
	// Wrong arity is caught at Bind.
	if _, err := cli.ExecPrepared("by_id"); !errors.As(err, &we) || we.Code != errcode.SyntaxOrExec.SQLSTATE {
		t.Fatalf("missing params: %v", err)
	}
	rows, err := cli.ExecPrepared("by_id", sqltypes.NewInt(1))
	if err != nil || rows.Rows[0][0].Str() != "one" {
		t.Fatalf("connection unusable after extended errors: %v %+v", err, rows)
	}
}

// TestWireBindSkipsCommentedParams: a parameter named only in a comment is
// not a parameter — Bind counts what the parser binds.
func TestWireBindSkipsCommentedParams(t *testing.T) {
	_, srv := startServer(t, nil)
	cli := dial(t, srv)
	mustQuery(t, cli, "CREATE TABLE items (id INT PRIMARY KEY, val VARCHAR)")
	mustQuery(t, cli, "INSERT INTO items VALUES (7, 'seven')")
	if err := cli.Prepare("q", "SELECT val FROM items WHERE id = @id -- was @old", sqltypes.KindInt); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	rows, err := cli.ExecPrepared("q", sqltypes.NewInt(7))
	if err != nil {
		t.Fatalf("bind one value: %v", err)
	}
	if len(rows.Rows) != 1 || rows.Rows[0][0].Str() != "seven" {
		t.Fatalf("rows: %+v", rows.Rows)
	}
}

func mustQuery(t *testing.T, cli *server.Client, sql string) *server.Rows {
	t.Helper()
	rows, err := cli.Query(sql)
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	return rows
}

func TestWirePasswordAuth(t *testing.T) {
	_, srv := startServer(t, func(c *server.Config) { c.Password = "sekrit" })

	if _, err := server.Dial(srv.Addr().String(), server.ClientConfig{User: "u", Password: "wrong"}); err == nil {
		t.Fatal("wrong password accepted")
	} else {
		var we *server.WireError
		if !errors.As(err, &we) || we.Code != errcode.InvalidPassword.SQLSTATE {
			t.Fatalf("wrong password error: %v", err)
		}
	}
	cli, err := server.Dial(srv.Addr().String(), server.ClientConfig{User: "u", Password: "sekrit"})
	if err != nil {
		t.Fatalf("right password rejected: %v", err)
	}
	defer cli.Close() //nolint:errcheck
	if _, err := cli.Query("CREATE TABLE ok (id INT PRIMARY KEY)"); err != nil {
		t.Fatalf("query after auth: %v", err)
	}
}

func TestWireMaxConns(t *testing.T) {
	_, srv := startServer(t, func(c *server.Config) { c.MaxConns = 2 })
	c1 := dial(t, srv)
	_ = c1
	c2 := dial(t, srv)
	_ = c2
	_, err := server.Dial(srv.Addr().String(), server.ClientConfig{User: "u"})
	var we *server.WireError
	if !errors.As(err, &we) || we.Code != errcode.TooManyConns.SQLSTATE {
		t.Fatalf("third connection: got %v, want 53300 WireError", err)
	}
	if st := srv.Stats(); st.Rejected != 1 || st.Active != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestWireRemoteAddrProbe: statements arriving over the wire expose the
// connection-scoped probes to rules; embedded sessions keep them NULL.
func TestWireRemoteAddrProbe(t *testing.T) {
	db, srv := startServer(t, nil)
	var remote atomic.Value
	remote.Store("")
	if _, err := db.NewRule("grab", "Query.Commit", "Query.Session_Age >= 0",
		&sqlcm.FuncAction{Name: "grab", Fn: func(env rules.Env, ctx *rules.Ctx) error {
			if v, ok := ctx.Attr("Query.Remote_Addr"); ok && !v.IsNull() {
				remote.Store(v.Str())
			}
			return nil
		}}); err != nil {
		t.Fatal(err)
	}
	cli := dial(t, srv)
	mustQuery(t, cli, "CREATE TABLE t (id INT PRIMARY KEY)")
	mustQuery(t, cli, "SELECT * FROM t")
	if !db.Flush(5 * time.Second) {
		t.Fatal("flush timed out")
	}
	got, _ := remote.Load().(string)
	if !strings.HasPrefix(got, "127.0.0.1:") {
		t.Fatalf("Remote_Addr probe: %q", got)
	}
}

// TestWireSigCacheExactlyOnce: many connections preparing and executing
// the same statement share one cached plan, so the monitor computes its
// signature exactly once — §4.2's compute-once discipline extended across
// the wire.
func TestWireSigCacheExactlyOnce(t *testing.T) {
	db, srv := startServer(t, nil)
	if _, err := db.DefineLAT(sqlcm.LATSpec{
		Name:    "ByTemplate",
		GroupBy: []string{"Logical_Signature"},
		Aggs:    []sqlcm.AggCol{{Func: sqlcm.Count, Attr: "ID", Name: "N"}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.NewRule("collect", "Query.Commit", "", &sqlcm.InsertAction{LAT: "ByTemplate"}); err != nil {
		t.Fatal(err)
	}
	setup := dial(t, srv)
	mustQuery(t, setup, "CREATE TABLE t (id INT PRIMARY KEY, v FLOAT)")
	mustQuery(t, setup, "INSERT INTO t VALUES (1, 1.0)")

	const conns = 16
	base := db.Monitor().SigComputes()
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli, err := server.Dial(srv.Addr().String(), server.ClientConfig{User: "w", App: "sig"})
			if err != nil {
				errs <- err
				return
			}
			defer cli.Close() //nolint:errcheck
			if err := cli.Prepare("q", "SELECT v FROM t WHERE id = @id", sqltypes.KindInt); err != nil {
				errs <- err
				return
			}
			for j := 0; j < 3; j++ {
				if _, err := cli.ExecPrepared("q", sqltypes.NewInt(1)); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := db.Monitor().SigComputes() - base; got != 1 {
		t.Fatalf("signature computed %d times for one statement text across %d connections, want 1", got, conns)
	}
	// Two logical signatures total: the setup INSERT and the shared SELECT
	// — 48 executions across 16 connections collapsed into one group.
	lat, _ := db.LAT("ByTemplate")
	if lat.Len() != 2 {
		t.Fatalf("LAT groups: %d, want 2 (setup INSERT + one shared SELECT signature)", lat.Len())
	}
}

// TestGracefulDrainUnderLoad: Shutdown under live traffic refuses new
// connections, lets in-flight statements finish, drains the monitoring
// outbox with zero dead-lettered Persist actions, and leaks no goroutines.
func TestGracefulDrainUnderLoad(t *testing.T) {
	db, srv := startServer(t, func(c *server.Config) { c.DrainTimeout = 5 * time.Second })
	// Snapshot after the DB and listener are up: the DB's outbox workers
	// live until db.Close, so the leak check covers exactly the goroutines
	// Shutdown owns — the accept loop, connection handlers, drain helpers.
	defer testutil.CheckLeaks(t)()
	if _, err := db.NewRule("persist_all", "Query.Commit", "Query.Query_Type = 'SELECT'",
		&sqlcm.PersistAction{Table: "audit_log", Attrs: []string{"ID", "Query_Text", "Duration"}}); err != nil {
		t.Fatal(err)
	}
	setup := dial(t, srv)
	mustQuery(t, setup, "CREATE TABLE t (id INT PRIMARY KEY, v FLOAT)")
	mustQuery(t, setup, "INSERT INTO t VALUES (1, 1.0)")

	// Live traffic: workers hammer SELECTs until the server turns them away.
	const workers = 12
	var wg sync.WaitGroup
	var completed atomic.Int64
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli, err := server.Dial(srv.Addr().String(), server.ClientConfig{User: "w", App: "drain"})
			if err != nil {
				return
			}
			defer cli.Close() //nolint:errcheck
			for {
				if _, err := cli.Query("SELECT v FROM t WHERE id = 1"); err != nil {
					return // shutdown notice or closed connection
				}
				completed.Add(1)
			}
		}()
	}

	// Let the load establish, then shut down underneath it.
	deadline := time.Now().Add(5 * time.Second)
	for completed.Load() < 50 {
		if time.Now().After(deadline) {
			t.Fatal("load never ramped up")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("graceful shutdown failed: %v", err)
	}
	wg.Wait()

	// New connections are refused after shutdown.
	if _, err := server.Dial(srv.Addr().String(), server.ClientConfig{User: "late"}); err == nil {
		t.Fatal("connection accepted after shutdown")
	}

	// The outbox drained: every Persist action from in-flight statements
	// executed; none were dead-lettered or abandoned.
	st := db.Monitor().Outbox().Stats()
	persist := st.ByKind[outbox.Persist]
	if persist.DeadLetters != 0 || persist.Abandoned != 0 {
		t.Fatalf("persist actions lost: %+v", persist)
	}
	if dl := db.Monitor().Outbox().DeadLetters(); len(dl) != 0 {
		t.Fatalf("dead letters: %+v", dl)
	}
	if persist.Done == 0 {
		t.Fatal("no persist actions executed; the load did not exercise the outbox")
	}
	rows, err := db.ReadTable("audit_log")
	if err != nil || len(rows) == 0 {
		t.Fatalf("audit_log after drain: %d rows, err %v", len(rows), err)
	}
	// The deferred testutil.CheckLeaks verifies the accept loop, connection
	// handlers and drain helpers are all gone.
}

// TestSessionsClosedOnDisconnect: a client that terminates mid-transaction
// gets its session closed and its transaction rolled back.
func TestSessionsClosedOnDisconnect(t *testing.T) {
	_, srv := startServer(t, nil)
	setup := dial(t, srv)
	mustQuery(t, setup, "CREATE TABLE t (id INT PRIMARY KEY)")

	cli, err := server.Dial(srv.Addr().String(), server.ClientConfig{User: "txer"})
	if err != nil {
		t.Fatal(err)
	}
	mustQueryC(t, cli, "BEGIN")
	mustQueryC(t, cli, "INSERT INTO t VALUES (1)")
	cli.Close() //nolint:errcheck

	// The rollback frees the table lock; a fresh connection sees no row.
	deadline := time.Now().Add(5 * time.Second)
	for {
		rows, err := setup.Query("SELECT COUNT(*) FROM t")
		if err == nil && rows.Rows[0][0].Int() == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("uncommitted txn not rolled back on disconnect: rows=%v err=%v", rows, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func mustQueryC(t *testing.T, cli *server.Client, sql string) {
	t.Helper()
	if _, err := cli.Query(sql); err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
}
