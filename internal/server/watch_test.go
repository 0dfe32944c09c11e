package server

import (
	"testing"
	"time"

	"sqlcm"
)

// TestStatementExpiryRetriesWithoutStatement: a statement wait whose
// timeout passes while no statement is in flight — between a procedure's
// body statements — is left unexpired, so the watchdog's next look
// cancels the statement that follows instead of losing the timeout.
func TestStatementExpiryRetriesWithoutStatement(t *testing.T) {
	db, err := sqlcm.Open(sqlcm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close() //nolint:errcheck
	srv, err := New(Config{NewSession: db.RemoteSession, StatementTimeout: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	sess := db.RemoteSession("watch", "watch_test", "local")
	defer sess.Close() //nolint:errcheck
	c := &conn{srv: srv}
	c.sessp.Store(sess)

	w := c.beginWait(waitStmt)
	c.expire(w, time.Now())
	if got := c.wait.Load(); got != w {
		t.Fatalf("wait word %#x after a cancel with no statement in flight, want %#x (unexpired)", got, w)
	}
	c.endWait(w)
}
