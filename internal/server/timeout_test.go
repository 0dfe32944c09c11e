package server_test

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"sqlcm/internal/server"
	"sqlcm/internal/sqltypes"
)

// rawSession dials srv and runs the startup exchange by hand, returning
// the bare connection right after the first ReadyForQuery, so a test can
// stall, trickle or stop reading at the byte level, and when the startup
// message was sent: the server's first wait began after that.
func rawSession(t *testing.T, srv *server.Server) (net.Conn, time.Time) {
	t.Helper()
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() }) //nolint:errcheck
	body := []byte{0, 3, 0, 0}       // protocol 3.0
	body = append(body, "user\x00raw\x00\x00"...)
	msg := binary.BigEndian.AppendUint32(nil, uint32(len(body)+4))
	sent := time.Now()
	if _, err := nc.Write(append(msg, body...)); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	defer nc.SetReadDeadline(time.Time{})               //nolint:errcheck
	var hdr [5]byte
	for {
		if _, err := io.ReadFull(nc, hdr[:]); err != nil {
			t.Fatalf("handshake: %v", err)
		}
		n := int(binary.BigEndian.Uint32(hdr[1:])) - 4
		if _, err := io.ReadFull(nc, make([]byte, n)); err != nil {
			t.Fatalf("handshake: %v", err)
		}
		if hdr[0] == 'Z' {
			return nc, sent
		}
	}
}

// awaitClose blocks until the server ends nc (or limit passes) and
// returns when that happened.
func awaitClose(t *testing.T, nc net.Conn, limit time.Duration) time.Time {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(limit)) //nolint:errcheck
	var buf [512]byte
	for {
		_, err := nc.Read(buf[:])
		if err == nil {
			continue
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatalf("connection still open after %v", limit)
		}
		return time.Now()
	}
}

// TestIdleConnectionTimesOut: a connection that sends nothing is closed
// no earlier than ReadTimeout and well before twice it.
func TestIdleConnectionTimesOut(t *testing.T) {
	const rt = 300 * time.Millisecond
	_, srv := startServer(t, func(c *server.Config) { c.ReadTimeout = rt })
	nc, start := rawSession(t, srv)
	closed := awaitClose(t, nc, 2*rt)
	if got := closed.Sub(start); got < rt {
		t.Fatalf("idle connection closed after %v, before ReadTimeout %v", got, rt)
	}
}

// TestTrickledMessageTimesOut: a message fed one byte at a time does not
// keep its connection alive; the connection is cut about ReadTimeout
// after the message's first byte (slow-loris).
func TestTrickledMessageTimesOut(t *testing.T) {
	const rt = 300 * time.Millisecond
	_, srv := startServer(t, func(c *server.Config) { c.ReadTimeout = rt })
	nc, start := rawSession(t, srv)
	// A Query announcing 1 KiB, of which only a trickle ever arrives,
	// starting at once.
	msg := append([]byte{'Q', 0, 0, 4, 4}, strings.Repeat("x", 1024)...)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, b := range msg {
			if _, err := nc.Write([]byte{b}); err != nil {
				return
			}
			select {
			case <-stop:
				return
			case <-time.After(10 * time.Millisecond):
			}
		}
	}()
	closed := awaitClose(t, nc, 2*rt)
	close(stop)
	<-done
	if got := closed.Sub(start); got < rt {
		t.Fatalf("trickled message cut after %v, before ReadTimeout %v", got, rt)
	}
}

// TestStalledReaderWriteTimeout: a client that stops reading a result
// larger than the socket buffers stalls the server's writes; within twice
// WriteTimeout the connection's goroutine ends, its session closes and
// its open transaction is rolled back.
func TestStalledReaderWriteTimeout(t *testing.T) {
	const wt = 300 * time.Millisecond
	_, srv := startServer(t, func(c *server.Config) { c.WriteTimeout = wt })
	setup := dial(t, srv)
	mustQuery(t, setup, "CREATE TABLE big (id INT PRIMARY KEY, s VARCHAR)")
	mustQuery(t, setup, "CREATE TABLE mark (id INT PRIMARY KEY)")
	if err := setup.Prepare("ins", "INSERT INTO big VALUES (@id, @s)", sqltypes.KindInt, sqltypes.KindString); err != nil {
		t.Fatal(err)
	}
	// 128 rows of 64 KiB: 8 MiB of result, twice what loopback sockets
	// buffered for a client that never reads (2-4 MiB on Linux defaults).
	wide := sqltypes.NewString(strings.Repeat("w", 64<<10))
	for i := 0; i < 128; i++ {
		if _, err := setup.ExecPrepared("ins", sqltypes.NewInt(int64(i)), wide); err != nil {
			t.Fatal(err)
		}
	}

	nc, _ := rawSession(t, srv)
	query := func(sql string) {
		body := append([]byte(sql), 0)
		msg := binary.BigEndian.AppendUint32([]byte{'Q'}, uint32(len(body)+4))
		if _, err := nc.Write(append(msg, body...)); err != nil {
			t.Fatal(err)
		}
	}
	// BEGIN and an uncommitted INSERT, then the big SELECT, never read.
	query("BEGIN")
	query("INSERT INTO mark VALUES (1)")
	query("SELECT id, s FROM big")
	active := func() int64 { return srv.Stats().Active }
	deadline := time.Now().Add(2*wt + time.Second) // + the server's time to produce the result
	for active() > 1 {
		if time.Now().After(deadline) {
			t.Fatalf("stalled connection still served after %v (active %d)", 2*wt, active())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The session closed with the connection: its INSERT was rolled back.
	rows := mustQuery(t, setup, "SELECT COUNT(*) FROM mark")
	if n := rows.Rows[0][0].Int(); n != 0 {
		t.Fatalf("stalled connection's transaction left %d rows, want rolled back", n)
	}
}
