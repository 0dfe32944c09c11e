package server

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"slices"
	"testing"
	"time"

	"sqlcm"
)

// frame builds one typed wire message for the seed corpus.
func frame(typ byte, body []byte) []byte {
	out := make([]byte, 0, 5+len(body))
	out = append(out, typ)
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(body)+4))
	out = append(out, n[:]...)
	return append(out, body...)
}

// FuzzProtoFrame drives the frame parser and the payload cursor over
// arbitrary bytes: truncated frames, hostile length prefixes, embedded
// NULs, oversized declarations. The invariant is simply that parsing
// terminates with an error or a bounded message — never a panic and
// never an allocation proportional to a declared-but-absent length.
func FuzzProtoFrame(f *testing.F) {
	f.Add(frame(msgQuery, append([]byte("SELECT 1"), 0)))
	f.Add(frame(msgTerminate, nil))
	// Parse with one kind hint.
	parse := append([]byte("stmt\x00SELECT @a\x00"), 0, 1, 0, 0, 0, 20)
	f.Add(frame(msgParse, parse))
	// Bind with one NULL parameter.
	bind := append([]byte("\x00stmt\x00"), 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff, 0, 0)
	f.Add(frame(msgBind, bind))
	// Error response round trip.
	errBody := []byte("SERROR\x00C42601\x00Mboom\x00\x00")
	f.Add(frame(msgErrorResponse, errBody))
	// Length prefix far larger than the data behind it.
	f.Add([]byte{msgQuery, 0x00, 0xff, 0xff, 0xff, 'x'})
	// Length prefix below the 4-byte minimum, and a negative one.
	f.Add([]byte{msgQuery, 0x00, 0x00, 0x00, 0x02})
	f.Add([]byte{msgQuery, 0xff, 0xff, 0xff, 0xfe})
	// Startup-shaped payload (no type byte).
	f.Add([]byte{0x00, 0x00, 0x00, 0x09, 0x00, 0x03, 0x00, 0x00, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Startup path first: untyped length-prefixed payload.
		if body, err := newProtoReader(bytes.NewReader(data)).readStartup(); err == nil {
			p := payload{b: body}
			p.int32()   //nolint:errcheck
			p.cstring() //nolint:errcheck
			p.cstring() //nolint:errcheck
		}
		// Typed message stream: parse frames until the input runs out,
		// walking each payload the way the handlers do.
		pr := newProtoReader(bytes.NewReader(data))
		for i := 0; i < 64; i++ {
			typ, body, err := pr.readMessage()
			if err != nil {
				return
			}
			if len(body) > maxMessageLen {
				t.Fatalf("message %q exceeds maxMessageLen: %d", typ, len(body))
			}
			p := payload{b: body}
			switch typ {
			case msgQuery:
				p.cstring() //nolint:errcheck
			case msgParse:
				p.cstring() //nolint:errcheck
				p.cstring() //nolint:errcheck
				if n, err := p.int16(); err == nil {
					for j := 0; j < int(n); j++ {
						if _, err := p.int32(); err != nil {
							break
						}
					}
				}
			case msgBind:
				p.cstring() //nolint:errcheck
				p.cstring() //nolint:errcheck
				if n, err := p.int16(); err == nil {
					for j := 0; j < int(n); j++ {
						if _, err := p.int16(); err != nil {
							break
						}
					}
				}
				if n, err := p.int16(); err == nil {
					for j := 0; j < int(n); j++ {
						if _, _, err := p.lenBytes(); err != nil {
							break
						}
					}
				}
			case msgErrorResponse:
				parseError(body)
			default:
				p.byte()    //nolint:errcheck
				p.cstring() //nolint:errcheck
			}
		}
	})
}

// FuzzServeMessages feeds arbitrary post-handshake bytes to a live
// connection backed by a real session, so every frame that parses reaches
// dispatch and its handler. The invariant: no panic, and the connection
// answers or ends — it never hangs.
func FuzzServeMessages(f *testing.F) {
	f.Add(frame(msgQuery, []byte("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR)\x00")))
	f.Add(slices.Concat(
		frame(msgParse, append([]byte("s\x00SELECT @a\x00"), 0, 1, 0, 0, 0, 20)),
		frame(msgBind, []byte("\x00s\x00\x00\x00\x00\x01\x00\x00\x00\x0242\x00\x00")),
		frame(msgExecute, []byte("\x00\x00\x00\x00\x00")),
		frame(msgSync, nil)))
	f.Add(slices.Concat(
		frame(msgBind, []byte("p\x00\x00\x00\x01\x00\x01\x00\x01\xff\xff\xff\xff\x00\x00")),
		frame(msgDescribe, []byte("Pp\x00")),
		frame(msgCloseStmt, []byte("S\x00")),
		frame(msgSync, nil)))
	f.Add(frame(msgParse, append([]byte("s\x00SELECT 1\x00"), 0xff, 0xff)))
	f.Add(frame(msgBind, append([]byte("\x00\x00"), 0xff, 0xff)))
	f.Add(frame(msgTerminate, nil))

	db, err := sqlcm.Open(sqlcm.Config{})
	if err != nil {
		f.Fatal(err)
	}
	defer db.Close() //nolint:errcheck
	srv, err := New(Config{NewSession: db.RemoteSession, StatementTimeout: time.Second})
	if err != nil {
		f.Fatal(err)
	}
	var startup bytes.Buffer
	newProtoWriter(&startup).writeStartup(map[string]string{"user": "fuzz"}) //nolint:errcheck

	f.Fuzz(func(t *testing.T, data []byte) {
		client, server := net.Pipe()
		c := &conn{srv: srv, nc: server}
		done := make(chan struct{})
		go func() {
			defer close(done)
			c.serve()
		}()
		go io.Copy(io.Discard, client) //nolint:errcheck
		if _, err := client.Write(startup.Bytes()); err == nil {
			client.Write(data) //nolint:errcheck
		}
		client.Close() //nolint:errcheck
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("connection neither answered nor ended")
		}
	})
}
