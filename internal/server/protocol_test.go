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
	"sqlcm/internal/server/errcode"
	"sqlcm/internal/sqltypes"
)

// wireMsg frames one typed message.
func wireMsg(typ byte, body []byte) []byte {
	return append(binary.BigEndian.AppendUint32([]byte{typ}, uint32(len(body)+4)), body...)
}

// readMsg reads one typed message off nc.
func readMsg(t *testing.T, nc net.Conn) (byte, []byte) {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	var hdr [5]byte
	if _, err := io.ReadFull(nc, hdr[:]); err != nil {
		t.Fatalf("read: %v", err)
	}
	body := make([]byte, binary.BigEndian.Uint32(hdr[1:])-4)
	if _, err := io.ReadFull(nc, body); err != nil {
		t.Fatalf("read: %v", err)
	}
	return hdr[0], body
}

// TestNegativeCountsAreProtocolErrors: an element count below zero is a
// protocol violation (08P01) on either side, never a slice sized below
// zero: the server answers a Parse with kind count 0xFFFF and ends only
// that connection, and the client rejects such a RowDescription or
// DataRow from a hostile server.
func TestNegativeCountsAreProtocolErrors(t *testing.T) {
	_, srv := startServer(t, nil)
	nc, _ := rawSession(t, srv)
	parse := append([]byte("s\x00SELECT 1\x00"), 0xff, 0xff)
	if _, err := nc.Write(wireMsg('P', parse)); err != nil {
		t.Fatal(err)
	}
	typ, body := readMsg(t, nc)
	if typ != 'E' || !strings.Contains(string(body), "C"+errcode.ProtocolViolation.SQLSTATE+"\x00") {
		t.Fatalf("negative Parse count: got %q %q, want an 08P01 ErrorResponse", typ, body)
	}
	// The server is still up for everyone else.
	mustQuery(t, dial(t, srv), "SELECT 1")

	// A hostile server: each connection gets a handshake and then one
	// result whose count is negative.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close() //nolint:errcheck
	rowDesc := wireMsg('T', []byte{0xff, 0xfe})
	dataRow := append(wireMsg('T', append([]byte{0, 1}, "c\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x19\xff\xff\xff\xff\xff\xff\x00\x00"...)),
		wireMsg('D', []byte{0x80, 0x00})...)
	for _, result := range [][]byte{rowDesc, dataRow} {
		go func() {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			defer c.Close() //nolint:errcheck
			var n [4]byte
			if _, err := io.ReadFull(c, n[:]); err != nil {
				return
			}
			if _, err := io.ReadFull(c, make([]byte, binary.BigEndian.Uint32(n[:])-4)); err != nil {
				return
			}
			c.Write(append(append(wireMsg('R', []byte{0, 0, 0, 0}), wireMsg('Z', []byte{'I'})...), result...)) //nolint:errcheck
			io.Copy(io.Discard, c)                                                                             //nolint:errcheck
		}()
		cli, err := server.Dial(lis.Addr().String(), server.ClientConfig{User: "u", Timeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		_, err = cli.Query("SELECT 1")
		var we *server.WireError
		if !errors.As(err, &we) || we.Code != errcode.ProtocolViolation.SQLSTATE {
			t.Fatalf("negative count from the server: got %v, want WireError %s", err, errcode.ProtocolViolation.SQLSTATE)
		}
		cli.Close() //nolint:errcheck
	}
}

// TestBoundValuesDoNotAliasBody: the server reads every message into one
// reused buffer, so whatever outlives a message must be a copy. A VARCHAR
// bound through Bind, the SQL text kept by Parse and an error message all
// survive the messages that follow.
func TestBoundValuesDoNotAliasBody(t *testing.T) {
	_, srv := startServer(t, nil)
	cli := dial(t, srv)
	mustQuery(t, cli, "CREATE TABLE kv (k INT PRIMARY KEY, v VARCHAR)")
	if err := cli.Prepare("ins", "INSERT INTO kv VALUES (@k, @v)", sqltypes.KindInt, sqltypes.KindString); err != nil {
		t.Fatal(err)
	}
	// Parse keeps "get"'s text; the Binds and Executes below overwrite the
	// buffer it arrived in many times over.
	if err := cli.Prepare("get", "SELECT v FROM kv WHERE k = @k", sqltypes.KindInt); err != nil {
		t.Fatal(err)
	}
	want := map[int64]string{}
	for i := int64(1); i <= 20; i++ {
		want[i] = strings.Repeat(string(rune('a'+i)), int(i*37))
		if _, err := cli.ExecPrepared("ins", sqltypes.NewInt(i), sqltypes.NewString(want[i])); err != nil {
			t.Fatal(err)
		}
	}
	// An error message built from message bytes, followed by more traffic.
	_, err := cli.ExecPrepared("no_such_statement_name")
	var we *server.WireError
	if !errors.As(err, &we) || !strings.Contains(we.Message, `"no_such_statement_name"`) {
		t.Fatalf("unknown statement error: %v", err)
	}
	mustQuery(t, cli, "SELECT COUNT(*) FROM kv WHERE v = 'zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz'")
	for i := int64(1); i <= 20; i++ {
		rows, err := cli.ExecPrepared("get", sqltypes.NewInt(i))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows.Rows) != 1 || rows.Rows[0][0].Str() != want[i] {
			t.Fatalf("row %d: got %+v, want %d bytes of %q", i, rows.Rows, len(want[i]), want[i][:1])
		}
	}
	if !strings.Contains(we.Message, `"no_such_statement_name"`) {
		t.Fatalf("error message changed under later traffic: %q", we.Message)
	}
}
