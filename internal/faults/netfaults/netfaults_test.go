package netfaults

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"sqlcm/internal/clock"
)

// stubListener feeds pre-made conns to Wrap for affliction decisions.
type stubListener struct {
	conns chan net.Conn
}

func (s *stubListener) Accept() (net.Conn, error) {
	c, ok := <-s.conns
	if !ok {
		return nil, io.EOF
	}
	return c, nil
}
func (s *stubListener) Close() error   { return nil }
func (s *stubListener) Addr() net.Addr { return &net.TCPAddr{} }

// afflictions runs n accepts through a freshly seeded wrapper and
// returns which positions got which plan ("" = clean).
func afflictions(t *testing.T, seed int64, fraction float64, n int) []string {
	t.Helper()
	stub := &stubListener{conns: make(chan net.Conn, n)}
	for i := 0; i < n; i++ {
		a, b := net.Pipe()
		defer a.Close() //nolint:errcheck
		defer b.Close() //nolint:errcheck
		stub.conns <- a
	}
	close(stub.conns)
	l := Wrap(stub, Config{Seed: seed, Fraction: fraction})
	out := make([]string, 0, n)
	for {
		nc, err := l.Accept()
		if err != nil {
			break
		}
		if fc, ok := nc.(*Conn); ok {
			out = append(out, fc.Plan().Name)
		} else {
			out = append(out, "")
		}
	}
	return out
}

func TestDeterministicAffliction(t *testing.T) {
	a := afflictions(t, 42, 0.3, 64)
	b := afflictions(t, 42, 0.3, 64)
	if len(a) != 64 || len(b) != 64 {
		t.Fatalf("expected 64 accepts, got %d and %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("accept %d: plan %q vs %q under the same seed", i, a[i], b[i])
		}
	}
	toxic := 0
	for _, p := range a {
		if p != "" {
			toxic++
		}
	}
	if toxic == 0 || toxic == len(a) {
		t.Fatalf("fraction 0.3 afflicted %d/%d connections", toxic, len(a))
	}
	c := afflictions(t, 43, 0.3, 64)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical affliction schedules")
	}
}

func TestResetAfterBytes(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close() //nolint:errcheck
	fc := newConn(a, Plan{ResetAfter: 10}, 1)
	fc.clk = testClock{}

	// The deferred b.Close ends the copy with the pipe.
	go io.Copy(io.Discard, b) //nolint:errcheck

	// First write is capped to the 10-byte budget, second one trips the
	// reset mid-"frame".
	n, err := fc.Write(make([]byte, 8))
	if err != nil || n != 8 {
		t.Fatalf("first write: n=%d err=%v", n, err)
	}
	n, err = fc.Write(make([]byte, 8))
	if !errors.Is(err, ErrReset) {
		t.Fatalf("second write: n=%d err=%v, want ErrReset", n, err)
	}
	if n != 2 {
		t.Fatalf("second write moved %d bytes before the reset, want 2", n)
	}
	if _, err := fc.Read(make([]byte, 1)); !errors.Is(err, ErrReset) {
		t.Fatalf("read after reset: %v, want ErrReset", err)
	}
}

func TestSlowReadIsByteAtATime(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close() //nolint:errcheck
	fc := newConn(a, Plan{SlowReadDelay: time.Microsecond}, 1)
	fc.clk = testClock{}

	// The test's reads drain the pipe; the deferred b.Close backstops.
	go b.Write([]byte("hello")) //nolint:errcheck

	buf := make([]byte, 16)
	n, err := fc.Read(buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if n != 1 {
		t.Fatalf("slow-loris read returned %d bytes, want 1", n)
	}
}

func TestBlackholeSwallowsWrites(t *testing.T) {
	a, b := net.Pipe()
	fc := newConn(a, Plan{BlackholeAfter: 4}, 1)
	fc.clk = testClock{}

	done := make(chan struct{})
	var got []byte
	go func() {
		defer close(done)
		buf := make([]byte, 64)
		n, _ := b.Read(buf)
		got = buf[:n]
	}()

	if n, err := fc.Write([]byte("abcd")); err != nil || n != 4 {
		t.Fatalf("pre-blackhole write: n=%d err=%v", n, err)
	}
	<-done
	if string(got) != "abcd" {
		t.Fatalf("peer read %q, want %q", got, "abcd")
	}
	// Past the threshold: the write "succeeds" but nothing reaches the
	// peer (a read on b would block forever; the success return is the
	// observable contract).
	if n, err := fc.Write([]byte("wxyz")); err != nil || n != 4 {
		t.Fatalf("blackholed write: n=%d err=%v, want swallowed success", n, err)
	}
	a.Close() //nolint:errcheck
	b.Close() //nolint:errcheck
}

// testClock is the wall clock with sleeps elided, keeping tests fast
// while still exercising the sleep call paths.
type testClock struct{ clock.Real }

func (testClock) Sleep(time.Duration) {}
