package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sqlcm/internal/engine"
	"sqlcm/internal/server/errcode"
)

// Config tunes a Server.
type Config struct {
	// Addr is the TCP listen address (e.g. "127.0.0.1:5477"; ":0" picks a
	// free port).
	Addr string
	// MaxConns caps concurrent connections; further clients get a
	// "too many connections" error response at startup. 0 means the
	// default of 2000.
	MaxConns int
	// ReadTimeout bounds each read of a message, idle time before it
	// included: a connection that sends nothing, or trickles one message
	// in, is closed. 0 means the default of 5m.
	//
	// The three timeouts (read, write, statement) are kept by one
	// watchdog per Server, which looks at every connection each tick of
	// min(ReadTimeout, WriteTimeout, StatementTimeout if set)/8: a read or
	// write is cut no earlier than its timeout and within one tick after
	// it, a statement within two ticks after it.
	ReadTimeout time.Duration
	// WriteTimeout bounds each write to a connection (a flush of buffered
	// responses, or a large row written through): a client that stops
	// reading is closed. 0 means the default of 30s.
	WriteTimeout time.Duration
	// DrainTimeout bounds the graceful part of Shutdown: in-flight
	// statements get this long to finish before their connections are
	// force-closed. 0 means the default of 10s.
	DrainTimeout time.Duration
	// AdmissionWait is the accept-queue backpressure window: a
	// connection arriving while all MaxConns slots are taken waits up to
	// this long for a slot before the polite "too many connections"
	// refusal. 0 refuses immediately.
	AdmissionWait time.Duration
	// StatementTimeout bounds each statement's execution; the watchdog
	// cancels a statement exceeding it (Session.CancelCurrent), which
	// stops at the next row-iteration or lock-wait boundary, and the
	// client gets a retryable 57014 error plus a Query.Cancelled event
	// with reason timeout. 0 disables.
	StatementTimeout time.Duration
	// Overloaded, when set, is consulted before every statement: true
	// sheds the statement with a retryable 53400 error (and one
	// Query.Cancelled event, reason shed) instead of queueing it behind
	// an overloaded monitor. sqlcm-serve wires it to the event bus's
	// EWMA dispatch-budget state.
	Overloaded func() bool
	// Listener, when set, is served instead of binding Addr — the hook
	// chaos harnesses use to interpose a fault-injecting listener.
	Listener net.Listener
	// Password, when set, arms cleartext-password authentication; empty
	// trusts every client.
	Password string
	// NewSession opens the engine session for one authenticated
	// connection. Required.
	NewSession func(user, app, remoteAddr string) *engine.Session
	// Drain, when set, is called after every connection has ended during
	// Shutdown, with the remaining shutdown budget — the hook the
	// monitoring stack uses to drain its action outbox before the process
	// exits. Returning false reports abandoned work.
	Drain func(timeout time.Duration) bool
}

func (c Config) withDefaults() Config {
	if c.MaxConns == 0 {
		c.MaxConns = 2000
	}
	if c.ReadTimeout == 0 {
		c.ReadTimeout = 5 * time.Minute
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 30 * time.Second
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 10 * time.Second
	}
	return c
}

// Stats is a point-in-time view of the server's counters.
type Stats struct {
	Accepted   int64 // connections accepted (including later-rejected)
	Rejected   int64 // connections refused by the MaxConns limit
	Active     int64 // connections currently open
	Statements int64 // wire statements executed (simple + extended)
	Errors     int64 // error responses sent
	Shed       int64 // statements refused by overload shedding
	Cancelled  int64 // statements cancelled by timeout or drain
}

// Server is the TCP front-end: an accept loop handing each connection a
// goroutine that owns one engine.Session for the connection's lifetime.
type Server struct {
	cfg Config
	lis net.Listener

	// mu protects the live-connection set.
	//sqlcm:lock server.conns
	//sqlcm:guards conns
	mu    sync.Mutex
	conns map[*conn]struct{}

	// slots is the admission semaphore: one token per live connection,
	// capacity MaxConns. Admission takes a token (waiting up to
	// AdmissionWait — the accept-queue backpressure), untrack returns
	// it. The conns map stays the drain-time snapshot source.
	slots chan struct{}

	wg       sync.WaitGroup // connection goroutines
	acceptWG sync.WaitGroup // the accept loop itself
	watchWG  sync.WaitGroup // the timeout watchdog
	closing  atomic.Bool
	stopping chan struct{} // closed by Shutdown; aborts admission waits
	watched  chan struct{} // closed by Shutdown once no connection is left

	accepted   atomic.Int64
	rejected   atomic.Int64
	statements atomic.Int64
	errors     atomic.Int64
	shed       atomic.Int64
	cancelled  atomic.Int64
}

// New builds a server; Start brings up the listener.
func New(cfg Config) (*Server, error) {
	if cfg.NewSession == nil {
		return nil, fmt.Errorf("server: Config.NewSession is required")
	}
	s := &Server{cfg: cfg.withDefaults(), conns: make(map[*conn]struct{})}
	s.slots = make(chan struct{}, s.cfg.MaxConns)
	s.stopping = make(chan struct{})
	s.watched = make(chan struct{})
	return s, nil
}

// Start binds the listen address (or adopts Config.Listener) and
// launches the accept loop.
func (s *Server) Start() error {
	if s.cfg.Listener != nil {
		s.lis = s.cfg.Listener
	} else {
		lis, err := net.Listen("tcp", s.cfg.Addr)
		if err != nil {
			return err
		}
		s.lis = lis
	}
	s.acceptWG.Add(1)
	go s.acceptLoop()
	s.watchWG.Add(1)
	go s.watch()
	return nil
}

// watch is the timeout watchdog: each tick it looks at every connection's
// current wait — a read, a write or a statement — and expires the ones
// past their timeout (conn.watch). It runs until Shutdown has seen every
// connection end.
func (s *Server) watch() {
	defer s.watchWG.Done()
	shortest := min(s.cfg.ReadTimeout, s.cfg.WriteTimeout)
	if st := s.cfg.StatementTimeout; st > 0 {
		shortest = min(shortest, st)
	}
	tick := max(shortest/8, time.Millisecond)
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.watched:
			return
		case <-t.C:
			for _, c := range s.connSnapshot() {
				c.watch(tick)
			}
		}
	}
}

// Addr returns the bound listen address (valid after Start).
func (s *Server) Addr() net.Addr { return s.lis.Addr() }

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	active := int64(len(s.conns))
	s.mu.Unlock()
	return Stats{
		Accepted:   s.accepted.Load(),
		Rejected:   s.rejected.Load(),
		Active:     active,
		Statements: s.statements.Load(),
		Errors:     s.errors.Load(),
		Shed:       s.shed.Load(),
		Cancelled:  s.cancelled.Load(),
	}
}

// acceptLoop accepts connections until the listener closes.
func (s *Server) acceptLoop() {
	defer s.acceptWG.Done()
	for {
		nc, err := s.lis.Accept()
		if err != nil {
			return // listener closed (Shutdown) or fatal accept error
		}
		s.accepted.Add(1)
		if s.closing.Load() {
			s.refuse(nc, errcode.AdminShutdown, "server is shutting down")
			continue
		}
		c := &conn{srv: s, nc: nc}
		if !s.admit(c) {
			s.rejected.Add(1)
			s.refuse(nc, errcode.TooManyConns, "too many connections")
			continue
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(c)
			c.serve()
		}()
	}
}

// refuse answers a connection we will not serve with an error response
// and closes it (best effort; the client may not even read it, so the
// deadline failure mode is just a faster close).
func (s *Server) refuse(nc net.Conn, code errcode.Code, msg string) {
	if err := nc.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout)); err == nil {
		pw := newProtoWriter(nc)
		pw.writeError(code, msg) //nolint:errcheck
		pw.flush()               //nolint:errcheck
	}
	nc.Close() //nolint:errcheck
}

// admit takes an admission slot for a connection, waiting up to
// AdmissionWait when the server is at MaxConns (the accept-queue
// backpressure window: a burst that merely overshoots the cap briefly is
// absorbed instead of refused). false means the connection must be
// politely rejected. The accept loop blocks while waiting, which is the
// point — backpressure propagates to the kernel accept queue.
func (s *Server) admit(c *conn) bool {
	select {
	case s.slots <- struct{}{}:
	default:
		if s.cfg.AdmissionWait <= 0 {
			return false
		}
		t := time.NewTimer(s.cfg.AdmissionWait)
		defer t.Stop()
		select {
		case s.slots <- struct{}{}:
		case <-t.C:
			return false
		case <-s.stopping:
			return false
		}
	}
	s.mu.Lock()
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	return true
}

// untrack removes a finished connection and returns its admission slot.
func (s *Server) untrack(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	<-s.slots
}

// connSnapshot copies the live-connection set (lock held only for the
// copy; per-connection work happens outside it).
func (s *Server) connSnapshot() []*conn {
	s.mu.Lock()
	out := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		out = append(out, c)
	}
	s.mu.Unlock()
	return out
}

// ErrDrainIncomplete reports a Shutdown that had to abandon work: force-
// closed connections or an outbox drain that timed out.
var ErrDrainIncomplete = errors.New("server: shutdown drain incomplete")

// Shutdown stops the server with the outbox drain discipline: stop
// accepting, wake idle connections and let in-flight statements finish
// under the drain deadline, cancel statements that outlive the graceful
// window (reason drain, observable as Query.Cancelled), force-close
// stragglers, then hand the remaining budget to the Drain hook (the
// monitoring outbox). It returns ErrDrainIncomplete (wrapped with
// detail) if anything was abandoned.
func (s *Server) Shutdown(timeout time.Duration) error {
	if s.closing.Swap(true) {
		return nil
	}
	close(s.stopping)
	if timeout <= 0 {
		timeout = s.cfg.DrainTimeout
	}
	deadline := time.Now().Add(timeout)

	// 1. Refuse new connections.
	if s.lis != nil {
		s.lis.Close() //nolint:errcheck
		s.acceptWG.Wait()
	}

	// 2. Begin draining every live connection: each observes the draining
	// flag after its current command (if any) completes; idle connections
	// blocked in a read are woken by an immediate read deadline, armed
	// the way the watchdog expires a wait.
	for _, c := range s.connSnapshot() {
		c.beginDrain()
	}

	// 3. Wait for connection goroutines. Most of the budget is the
	// graceful window; statements still running when it ends are
	// cancelled with reason drain (they fail at their next row-iteration
	// or lock-wait boundary, their clients get a retryable 57014) and
	// given the rest of the budget to unwind. Only connections that
	// survive even that are force-closed.
	grace := timeout / 5
	if grace > time.Second {
		grace = time.Second
	}
	graceful := waitTimeout(&s.wg, time.Until(deadline.Add(-grace)))
	if !graceful {
		// The Cancelled counter is bumped where the statement's failure is
		// mapped onto the wire (execErrCode), not here — a cancel that
		// lands after the statement completed should not count.
		for _, c := range s.connSnapshot() {
			c.cancelForDrain()
		}
		graceful = waitTimeout(&s.wg, time.Until(deadline))
	}
	var forced int
	if !graceful {
		for _, c := range s.connSnapshot() {
			c.nc.Close() //nolint:errcheck
			forced++
		}
		s.wg.Wait()
	}
	close(s.watched)
	s.watchWG.Wait()

	// 4. Drain the monitoring outbox with whatever budget remains (at
	// least a second, so a shutdown that spent its budget on connections
	// still flushes quick queues).
	drained := true
	if s.cfg.Drain != nil {
		budget := time.Until(deadline)
		if budget < time.Second {
			budget = time.Second
		}
		drained = s.cfg.Drain(budget)
	}

	switch {
	case forced > 0 && !drained:
		return fmt.Errorf("%w: %d connections force-closed, outbox drain timed out", ErrDrainIncomplete, forced)
	case forced > 0:
		return fmt.Errorf("%w: %d connections force-closed", ErrDrainIncomplete, forced)
	case !drained:
		return fmt.Errorf("%w: outbox drain timed out", ErrDrainIncomplete)
	}
	return nil
}

// waitTimeout waits on a WaitGroup with a deadline.
func waitTimeout(wg *sync.WaitGroup, d time.Duration) bool {
	if d <= 0 {
		d = time.Millisecond
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}
