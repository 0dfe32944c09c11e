// Package netfaults injects faults into net.Conn / net.Listener pairs,
// toxiproxy-style: a wrapped listener afflicts a configured fraction of
// accepted connections with a toxic plan — added latency and jitter,
// bandwidth caps, chunked partial writes, byte-at-a-time slow-loris
// reads, mid-frame connection resets, response blackholes — chosen
// deterministically from a seeded RNG keyed by accept sequence, so a
// chaos run with a fixed seed afflicts the same accept positions with
// the same toxics every time. Sleeps go through an injectable
// clock.Clock (clock.System by default) so harnesses that virtualize
// time can keep chaos schedules deterministic too.
//
// The wrapper sits on the *server* side of the pair (the accepted conn),
// which models a misbehaving or unlucky client as seen by the server:
// slow-loris reads starve the server's frame reader one byte at a time,
// blackholes swallow the server's responses until the client gives up,
// resets cut the stream mid-frame with an RST where the transport
// supports it. Deadlines pass through to the underlying connection, so
// the server's read/write timeouts and drain wake-ups keep working on a
// toxic connection.
package netfaults

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sqlcm/internal/clock"
)

// ErrReset is returned by reads and writes on a connection the injector
// has hard-closed (the injected mid-frame reset).
var ErrReset = errors.New("netfaults: injected connection reset")

// Plan is one toxic recipe. Zero fields are inert, so plans compose: a
// plan may add latency and cap bandwidth and reset after N bytes.
type Plan struct {
	// Name labels the plan in stats and test output.
	Name string
	// Latency is added before every read and write; Jitter adds a
	// uniform random extra in [0, Jitter).
	Latency time.Duration
	Jitter  time.Duration
	// BandwidthBps caps throughput in bytes/second (both directions) by
	// sleeping proportionally to bytes moved.
	BandwidthBps int
	// WriteChunk splits writes into chunks of at most this many bytes
	// (partial writes); ChunkDelay sleeps between chunks.
	WriteChunk int
	ChunkDelay time.Duration
	// SlowReadDelay, when positive, turns reads into byte-at-a-time
	// slow-loris reads with this delay before each byte.
	SlowReadDelay time.Duration
	// ResetAfter, when positive, hard-closes the connection (RST where
	// the transport allows) once this many total bytes have moved in
	// either direction — mid-frame for any realistic threshold.
	ResetAfter int64
	// BlackholeAfter, when positive, swallows all writes after this many
	// total bytes have moved: the peer sees a connection that went dark
	// but never closed.
	BlackholeAfter int64
}

// Lethal reports whether the plan eventually kills or wedges the
// connection (as opposed to merely degrading it). Chaos assertions use
// it to decide which connections must still complete cleanly.
func (p Plan) Lethal() bool { return p.ResetAfter > 0 || p.BlackholeAfter > 0 }

// DefaultPlans is the standard toxic catalog: three benign degraders and
// three lethal toxics. Thresholds are chosen so the protocol handshake
// (~150 bytes each way) completes before a lethal toxic bites — the
// interesting failures are mid-session, not failed dials.
func DefaultPlans() []Plan {
	return []Plan{
		{Name: "latency", Latency: 2 * time.Millisecond, Jitter: 3 * time.Millisecond},
		{Name: "bandwidth", BandwidthBps: 64 << 10},
		{Name: "chunked", WriteChunk: 7, ChunkDelay: 200 * time.Microsecond},
		{Name: "slowloris", SlowReadDelay: time.Millisecond},
		{Name: "reset", ResetAfter: 4096},
		{Name: "blackhole", BlackholeAfter: 2048},
	}
}

// Config tunes a wrapped listener.
type Config struct {
	// Seed keys the per-connection RNG; a fixed seed reproduces the same
	// afflict/plan decisions at the same accept positions.
	Seed int64
	// Fraction of accepted connections afflicted with a toxic, in [0,1].
	Fraction float64
	// Plans is the toxic catalog to sample from (DefaultPlans when nil).
	Plans []Plan
	// Clock supplies the sleeps (clock.System when nil).
	Clock clock.Clock
}

// Stats is a point-in-time view of the injector's counters.
type Stats struct {
	Accepted  int64 // connections accepted through the wrapper
	Afflicted int64 // connections given a toxic plan
	Lethal    int64 // afflicted connections whose plan is lethal
}

// Listener wraps a net.Listener, afflicting a fraction of accepted
// connections with toxic plans.
type Listener struct {
	net.Listener
	cfg Config

	seq       atomic.Int64
	afflicted atomic.Int64
	lethal    atomic.Int64
}

// Wrap builds a fault-injecting listener over lis.
func Wrap(lis net.Listener, cfg Config) *Listener {
	if cfg.Clock == nil {
		cfg.Clock = clock.System
	}
	if len(cfg.Plans) == 0 {
		cfg.Plans = DefaultPlans()
	}
	return &Listener{Listener: lis, cfg: cfg}
}

// Accept accepts the next connection, deciding deterministically (seed +
// accept sequence) whether and how to afflict it.
func (l *Listener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	seq := l.seq.Add(1)
	// Golden-ratio stride decorrelates consecutive sequence numbers under
	// the shared seed.
	const stride uint64 = 0x9e3779b97f4a7c15
	rng := rand.New(rand.NewSource(int64(uint64(l.cfg.Seed) + uint64(seq)*stride)))
	if rng.Float64() >= l.cfg.Fraction {
		return nc, nil
	}
	plan := l.cfg.Plans[rng.Intn(len(l.cfg.Plans))]
	l.afflicted.Add(1)
	if plan.Lethal() {
		l.lethal.Add(1)
	}
	return newConn(nc, plan, l.cfg.Clock, rng.Int63()), nil
}

// Stats snapshots the injector counters.
func (l *Listener) Stats() Stats {
	return Stats{
		Accepted:  l.seq.Load(),
		Afflicted: l.afflicted.Load(),
		Lethal:    l.lethal.Load(),
	}
}

// Conn is one afflicted connection. Reads and writes may each be driven
// by one goroutine concurrently (the net.Conn contract); the per-side
// RNGs keep jitter deterministic without a lock across sides.
type Conn struct {
	net.Conn
	plan Plan
	clk  clock.Clock

	// total counts bytes moved in either direction; the lethal toxics
	// trigger on it.
	total atomic.Int64
	reset atomic.Bool

	readRng  *rand.Rand // owned by the reading goroutine
	writeRng *rand.Rand // owned by the writing goroutine

	closeOnce sync.Once
	closeErr  error
}

func newConn(nc net.Conn, plan Plan, clk clock.Clock, seed int64) *Conn {
	return &Conn{
		Conn:     nc,
		plan:     plan,
		clk:      clk,
		readRng:  rand.New(rand.NewSource(seed)),
		writeRng: rand.New(rand.NewSource(seed ^ -1)),
	}
}

// Plan returns the connection's toxic plan.
func (c *Conn) Plan() Plan { return c.plan }

// delay applies the plan's base latency plus jitter.
func (c *Conn) delay(rng *rand.Rand) {
	d := c.plan.Latency
	if c.plan.Jitter > 0 {
		d += time.Duration(rng.Int63n(int64(c.plan.Jitter)))
	}
	if d > 0 {
		c.clk.Sleep(d)
	}
}

// throttle enforces the bandwidth cap for n bytes just moved.
func (c *Conn) throttle(n int) {
	if c.plan.BandwidthBps <= 0 || n <= 0 {
		return
	}
	c.clk.Sleep(time.Duration(float64(n) / float64(c.plan.BandwidthBps) * float64(time.Second)))
}

// capForReset caps an I/O of n bytes to the remaining pre-reset budget.
// ok=false means the budget is exhausted: the caller must hard-close.
func (c *Conn) capForReset(n int) (int, bool) {
	if c.plan.ResetAfter <= 0 {
		return n, true
	}
	rem := c.plan.ResetAfter - c.total.Load()
	if rem <= 0 {
		return 0, false
	}
	if int64(n) > rem {
		n = int(rem)
	}
	return n, true
}

// hardClose kills the connection abruptly: SetLinger(0) turns the close
// into an RST on TCP, so the peer sees a reset rather than a clean EOF.
func (c *Conn) hardClose() {
	c.reset.Store(true)
	c.closeOnce.Do(func() {
		if tc, ok := c.Conn.(*net.TCPConn); ok {
			tc.SetLinger(0) //nolint:errcheck
		}
		c.closeErr = c.Conn.Close()
	})
}

// Read implements net.Conn with the plan's read-side toxics.
func (c *Conn) Read(p []byte) (int, error) {
	if c.reset.Load() {
		return 0, ErrReset
	}
	if len(p) == 0 {
		return c.Conn.Read(p)
	}
	c.delay(c.readRng)
	if c.plan.SlowReadDelay > 0 {
		p = p[:1]
		c.clk.Sleep(c.plan.SlowReadDelay)
	}
	lim, ok := c.capForReset(len(p))
	if !ok {
		c.hardClose()
		return 0, ErrReset
	}
	n, err := c.Conn.Read(p[:lim])
	c.total.Add(int64(n))
	c.throttle(n)
	return n, err
}

// Write implements net.Conn with the plan's write-side toxics.
func (c *Conn) Write(p []byte) (int, error) {
	if c.reset.Load() {
		return 0, ErrReset
	}
	c.delay(c.writeRng)
	if c.plan.BlackholeAfter > 0 && c.total.Load() >= c.plan.BlackholeAfter {
		// Gone dark: swallow the write; the peer times out on the reply.
		c.total.Add(int64(len(p)))
		return len(p), nil
	}
	written := 0
	for len(p) > 0 {
		chunk := len(p)
		if c.plan.WriteChunk > 0 && chunk > c.plan.WriteChunk {
			chunk = c.plan.WriteChunk
		}
		lim, ok := c.capForReset(chunk)
		if !ok {
			c.hardClose()
			return written, ErrReset
		}
		n, err := c.Conn.Write(p[:lim])
		c.total.Add(int64(n))
		c.throttle(n)
		written += n
		if err != nil {
			return written, err
		}
		p = p[lim:]
		if c.plan.ChunkDelay > 0 && len(p) > 0 {
			c.clk.Sleep(c.plan.ChunkDelay)
		}
	}
	return written, nil
}

// Close implements net.Conn.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { c.closeErr = c.Conn.Close() })
	return c.closeErr
}
