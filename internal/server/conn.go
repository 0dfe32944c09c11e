package server

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sqlcm/internal/engine"
	"sqlcm/internal/server/errcode"
	"sqlcm/internal/sqltypes"
)

// conn serves one client connection. Exactly one goroutine runs serve();
// it owns the engine session for the connection's whole lifetime. The
// shutdown path and the timeout watchdog touch a conn only through
// atomics, deadlineMu and the concurrency-safe net.Conn.
type conn struct {
	srv *Server
	nc  net.Conn

	pr   *protoReader
	pw   *protoWriter
	sess *engine.Session
	// sessp mirrors sess for cross-goroutine readers (the drain-cancel
	// path); the serve goroutine itself uses the plain field.
	sessp atomic.Pointer[engine.Session]

	// stmts holds the connection's named prepared statements; portals
	// bind parameter values to one of them. Single-goroutine state.
	stmts   map[string]*preparedStmt
	portals map[string]*portal

	// wait is the read, write or statement the serve goroutine is blocked
	// in, for the timeout watchdog and the drain: 0 when it is not
	// waiting, else the wait's sequence number (waits counts them) shifted
	// past the kind and waitExpired bits.
	wait  atomic.Uint64
	waits uint64
	// deadlineMu orders expiring a wait — arming its deadline, or
	// cancelling its statement — against the wait's end (endWait): once a
	// wait is expired, endWait cannot retire it before expire is done.
	//sqlcm:lock server.deadline
	//sqlcm:guards none
	deadlineMu sync.Mutex
	// seen is the wait the watchdog saw at its last look, since when it
	// first saw it. Watchdog goroutine only.
	seen  uint64
	since time.Time

	// draining tells the command loop to exit after the current command.
	draining atomic.Bool
	// skipToSync is the extended-protocol error state: after an error,
	// further extended messages are discarded until Sync.
	skipToSync bool
}

// Bits of conn.wait below the sequence number. A wait of neither kind is a
// read, bounded by ReadTimeout.
const (
	waitWrite   = 1 // a write, bounded by WriteTimeout
	waitStmt    = 2 // a statement, bounded by StatementTimeout
	waitKind    = waitWrite | waitStmt
	waitExpired = 4 // a deadline has been armed, or the statement cancelled
)

// preparedStmt is a named statement plus the parameter kind hints the
// client declared at Parse time.
type preparedStmt struct {
	ps    *engine.Prepared
	names []string        // parameter names, first-appearance order
	kinds []sqltypes.Kind // by parameter position (names order)
}

// portal is a bound statement awaiting Execute. A Bind to an existing
// portal rebinds it in place.
type portal struct {
	stmt   *preparedStmt
	params map[string]sqltypes.Value
}

// beginWait publishes a wait of the given kind (0 for a read, waitWrite
// or waitStmt) that the serve goroutine is about to block in.
func (c *conn) beginWait(kind uint64) uint64 {
	c.waits++
	w := c.waits<<3 | kind
	c.wait.Store(w)
	return w
}

// endWait retires w. If the watchdog or the drain expired it meanwhile,
// the deadline armed for it is cleared, so it cannot cut the next wait,
// and a statement's cancel has landed before the next statement begins.
func (c *conn) endWait(w uint64) {
	if c.wait.CompareAndSwap(w, 0) {
		return
	}
	c.deadlineMu.Lock()
	c.setDeadline(w, time.Time{}) //nolint:errcheck
	c.wait.Store(0)
	c.deadlineMu.Unlock()
}

// expire arms w's deadline at at (a past instant wakes it now), or
// cancels w's statement with reason timeout, unless w has ended. A
// deadline that cannot be armed closes the connection. A cancel that
// finds no statement in flight (between a procedure's body statements)
// un-expires w, so the next look retries it.
func (c *conn) expire(w uint64, at time.Time) {
	w &^= waitExpired
	var err error
	c.deadlineMu.Lock()
	if c.wait.CompareAndSwap(w, w|waitExpired) || c.wait.Load() == w|waitExpired {
		if w&waitKind != waitStmt {
			err = c.setDeadline(w, at)
		} else if !c.sessp.Load().CancelCurrent(engine.CancelTimeout) {
			c.wait.Store(w)
		}
	}
	c.deadlineMu.Unlock()
	if err != nil {
		c.nc.Close() //nolint:errcheck
	}
}

// setDeadline arms, or with a zero at clears, w's read or write deadline.
// A statement wait has none: expire cancels the statement instead.
func (c *conn) setDeadline(w uint64, at time.Time) error {
	switch w & waitKind {
	case waitWrite:
		return c.nc.SetWriteDeadline(at)
	case waitStmt:
		return nil
	}
	return c.nc.SetReadDeadline(at)
}

// watch is the watchdog's look at c. A wait seen for the first time
// began before this look and after the previous one, at most a tick ago;
// its timeout is counted from this look, so it is never cut early, and
// its deadline is armed once it falls before the next look, so it is cut
// within a tick of its timeout. Watchdog goroutine only.
func (c *conn) watch(tick time.Duration) {
	w := c.wait.Load()
	if w == 0 || w&waitExpired != 0 {
		return
	}
	now := time.Now() // after the load: w began before now
	if w != c.seen {
		c.seen, c.since = w, now
		return
	}
	timeout, ahead := c.srv.cfg.ReadTimeout, tick
	switch w & waitKind {
	case waitWrite:
		timeout = c.srv.cfg.WriteTimeout
	case waitStmt:
		// A statement has no deadline to arm ahead of time: it is
		// cancelled at the first look past its timeout.
		timeout, ahead = c.srv.cfg.StatementTimeout, 0
		if timeout <= 0 {
			return
		}
	}
	if at := c.since.Add(timeout); at.Before(now.Add(ahead)) {
		c.expire(w, at)
	}
}

// longAgo is a deadline that has passed: arming it wakes a wait now.
var longAgo = time.Unix(1, 0)

// beginDrain asks the connection to wind down: an idle connection blocked
// in a read is woken immediately; an in-flight one finishes its current
// command first (the loop re-checks draining after every command).
func (c *conn) beginDrain() {
	c.draining.Store(true)
	if w := c.wait.Load(); w != 0 && w&waitKind == 0 {
		c.expire(w, longAgo)
	}
}

// connWriter is the connection's write side: every write that can block
// is a wait the watchdog bounds by WriteTimeout.
type connWriter struct{ c *conn }

func (cw connWriter) Write(b []byte) (int, error) {
	w := cw.c.beginWait(waitWrite)
	n, err := cw.c.nc.Write(b)
	cw.c.endWait(w)
	return n, err
}

// cancelForDrain cancels the connection's in-flight statement (if any)
// with reason drain. Called from the shutdown goroutine once the
// graceful window has lapsed; it touches the conn only through atomics.
func (c *conn) cancelForDrain() bool {
	sess := c.sessp.Load()
	if sess == nil {
		return false
	}
	return sess.CancelCurrent(engine.CancelDrain)
}

// serve runs the connection: handshake, then the command loop.
func (c *conn) serve() {
	defer c.nc.Close() //nolint:errcheck
	c.pr = newProtoReader(c.nc)
	c.pw = newProtoWriter(connWriter{c})
	c.stmts = make(map[string]*preparedStmt)
	c.portals = make(map[string]*portal)

	user, app, ok := c.handshake()
	if !ok {
		return
	}
	c.sess = c.srv.cfg.NewSession(user, app, c.nc.RemoteAddr().String())
	c.sessp.Store(c.sess)
	defer c.sess.Close() //nolint:errcheck

	for c.serveOne() {
	}
}

// serveOne reads one message and dispatches it; false ends the
// connection. The whole message is one read wait, however its bytes
// trickle in.
//
//sqlcm:hotpath
func (c *conn) serveOne() bool {
	// The wait is published before the draining check: beginDrain stores
	// the flag and then expires a published read wait, so whichever order
	// the two goroutines interleave in, this either sees the flag here or
	// wakes from the read below.
	w := c.beginWait(0)
	if c.draining.Load() {
		c.endWait(w)
		c.pw.writeError(errcode.AdminShutdown, "server is shutting down") //nolint:errcheck
		c.flush()                                                         //nolint:errcheck
		return false
	}
	typ, body, err := c.pr.readMessage()
	c.endWait(w)
	if err != nil {
		return false // disconnect, idle timeout, or drain wake-up
	}
	return c.dispatch(typ, body)
}

// dispatch handles one frontend message; false ends the connection. body
// is valid until the next read: handlers copy what they keep.
//
//sqlcm:hotpath
func (c *conn) dispatch(typ byte, body []byte) bool {
	switch typ {
	case msgTerminate:
		return false
	case msgQuery:
		return c.handleSimpleQuery(body)
	case msgParse:
		return c.handleParse(body)
	case msgBind:
		return c.handleBind(body)
	case msgExecute:
		return c.handleExecute(body)
	case msgDescribe:
		return c.handleDescribe(body)
	case msgCloseStmt:
		return c.handleClose(body)
	case msgSync:
		c.skipToSync = false
		return c.ready()
	default:
		c.srv.errors.Add(1)
		c.pw.writeError(errcode.ProtocolViolation, fmt.Sprintf("unexpected message %q", typ)) //nolint:errcheck
		return c.flush() == nil
	}
}

// ---------------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------------

// handshake runs the startup/auth exchange and returns the session
// identity. On failure the error has been written and the connection is
// done.
func (c *conn) handshake() (user, app string, ok bool) {
	body, err := c.readStartup()
	if err != nil {
		return "", "", false
	}
	p := payload{b: body}
	ver, err := p.int32()
	if err != nil {
		return "", "", false
	}
	switch ver {
	case sslRequest:
		// No TLS: answer 'N' and expect the real startup next.
		if _, err := c.nc.Write([]byte{'N'}); err != nil {
			return "", "", false
		}
		if body, err = c.readStartup(); err != nil {
			return "", "", false
		}
		p = payload{b: body}
		if ver, err = p.int32(); err != nil {
			return "", "", false
		}
	case cancelReqest:
		return "", "", false // out-of-band cancel: not supported, drop
	}
	if ver != protoVersion {
		c.fail(errcode.ProtocolViolation, fmt.Sprintf("unsupported protocol version %d", ver))
		return "", "", false
	}
	params := map[string]string{}
	for p.remaining() > 1 {
		k, err := p.cstring()
		if err != nil || k == "" {
			break
		}
		v, err := p.cstring()
		if err != nil {
			break
		}
		params[k] = v
	}
	user = params["user"]
	app = params["application_name"]

	if c.srv.cfg.Password != "" {
		c.pw.begin(msgAuth)
		c.pw.putInt32(authCleartext)
		c.pw.end() //nolint:errcheck
		c.flush()  //nolint:errcheck
		w := c.beginWait(0)
		typ, body, err := c.pr.readMessage()
		c.endWait(w)
		if err != nil || typ != msgPassword {
			return "", "", false
		}
		pp := payload{b: body}
		pass, _ := pp.cstring()
		if pass != c.srv.cfg.Password {
			c.fail(errcode.InvalidPassword, fmt.Sprintf("password authentication failed for user %q", user))
			return "", "", false
		}
	}

	c.pw.begin(msgAuth)
	c.pw.putInt32(authOK)
	c.pw.end() //nolint:errcheck
	c.pw.begin(msgParameterStatus)
	c.pw.putString("server_version")
	c.pw.putString("sqlcm")
	c.pw.end() //nolint:errcheck
	c.pw.begin(msgBackendKeyData)
	c.pw.putInt32(int32(c.srv.accepted.Load())) // backend "pid"
	c.pw.putInt32(0)                            // secret (cancel unsupported)
	c.pw.end()                                  //nolint:errcheck
	if !c.ready() {
		return "", "", false
	}
	return user, app, true
}

// readStartup reads one untyped startup message as one read wait.
func (c *conn) readStartup() ([]byte, error) {
	w := c.beginWait(0)
	body, err := c.pr.readStartup()
	c.endWait(w)
	return body, err
}

// fail writes one error response and flushes (connection-fatal paths).
func (c *conn) fail(code errcode.Code, msg string) {
	c.srv.errors.Add(1)
	c.pw.writeError(code, msg) //nolint:errcheck
	c.flush()                  //nolint:errcheck
}

// ready sends ReadyForQuery with the session's transaction status.
func (c *conn) ready() bool {
	status := byte(txIdle)
	if c.sess != nil && c.sess.InTxn() {
		status = txInTxn
	}
	c.pw.begin(msgReadyForQuery)
	c.pw.putByte(status)
	c.pw.end() //nolint:errcheck
	return c.flush() == nil
}

// flush pushes buffered output; the write is bounded by WriteTimeout
// (connWriter).
//
//sqlcm:hotpath
func (c *conn) flush() error { return c.pw.flush() }

// ---------------------------------------------------------------------------
// Simple query
// ---------------------------------------------------------------------------

func (c *conn) handleSimpleQuery(body []byte) bool {
	p := payload{b: body}
	sql, err := p.cstring()
	if err != nil {
		c.fail(errcode.ProtocolViolation, "malformed Query message")
		return false
	}
	if sql == "" {
		c.pw.begin(msgEmptyQueryResp)
		c.pw.end() //nolint:errcheck
		return c.ready()
	}
	if c.shedStatement(sql) {
		c.srv.errors.Add(1)
		c.pw.writeError(errcode.Overloaded, shedMessage) //nolint:errcheck
		return c.ready()
	}
	w := c.beginWait(waitStmt)
	res, execErr := c.sess.Exec(sql, nil)
	c.endWait(w)
	c.srv.statements.Add(1)
	if execErr != nil {
		c.srv.errors.Add(1)
		c.pw.writeError(execErrCode(c.srv, execErr), execErr.Error()) //nolint:errcheck
		return c.ready()
	}
	c.writeResult(res)
	return c.ready()
}

// shedMessage is the retryable refusal clients see when admission
// control sheds a statement.
const shedMessage = "statement shed: monitor overloaded, retry later"

// shedStatement consults the overload predicate and, when shedding,
// records the refusal as a Query.Cancelled event (reason shed) so the
// defensive action is itself monitored.
func (c *conn) shedStatement(sql string) bool {
	if c.srv.cfg.Overloaded == nil || !c.srv.cfg.Overloaded() {
		return false
	}
	c.srv.shed.Add(1)
	c.sess.NoteShedStatement(sql)
	return true
}

// execErrCode maps a statement failure onto its wire code: defensive
// cancellations (timeout, shed, drain, admin) are the retryable 57014,
// everything else is the generic execution error.
func execErrCode(srv *Server, err error) errcode.Code {
	var ce *engine.CancelledError
	if errors.As(err, &ce) {
		if ce.Reason == engine.CancelTimeout || ce.Reason == engine.CancelDrain {
			srv.cancelled.Add(1)
		}
		return errcode.QueryCancelled
	}
	return errcode.SyntaxOrExec
}

// writeResult frames a statement result: RowDescription + DataRows for
// row-returning statements, then CommandComplete. Values and the tag are
// appended straight into the message buffer.
//
//sqlcm:hotpath
func (c *conn) writeResult(res *engine.Result) {
	if res != nil && res.Columns != nil {
		c.pw.begin(msgRowDescription)
		c.pw.putInt16(int16(len(res.Columns)))
		for i, col := range res.Columns {
			c.pw.putString(col)
			c.pw.putInt32(0) // table oid
			c.pw.putInt16(0) // attr number
			c.pw.putInt32(kindOID(columnKind(res, i)))
			c.pw.putInt16(-1) // type size
			c.pw.putInt32(-1) // type modifier
			c.pw.putInt16(0)  // text format
		}
		c.pw.end() //nolint:errcheck
		for _, row := range res.Rows {
			c.pw.begin(msgDataRow)
			c.pw.putInt16(int16(len(row)))
			for _, v := range row {
				c.pw.putValue(v)
			}
			c.pw.end() //nolint:errcheck
		}
	}
	c.pw.begin(msgCommandComplete)
	switch {
	case res == nil:
		c.pw.putString("OK")
	case res.Columns != nil:
		c.pw.buf = append(strconv.AppendInt(append(c.pw.buf, "SELECT "...), int64(len(res.Rows)), 10), 0)
	default:
		c.pw.buf = append(strconv.AppendInt(append(c.pw.buf, "OK "...), res.Affected, 10), 0)
	}
	c.pw.end() //nolint:errcheck
}

// columnKind infers result column i's wire type from its first non-NULL
// value (all-NULL or no rows → text).
func columnKind(res *engine.Result, i int) sqltypes.Kind {
	for _, row := range res.Rows {
		if i < len(row) && !row[i].IsNull() {
			return row[i].Kind()
		}
	}
	return sqltypes.KindString
}

// ---------------------------------------------------------------------------
// Extended protocol: Parse / Bind / Execute / Describe / Close
// ---------------------------------------------------------------------------

// extendedError reports an extended-protocol error and arms skip-to-Sync.
func (c *conn) extendedError(code errcode.Code, err error) bool {
	c.srv.errors.Add(1)
	c.skipToSync = true
	c.pw.writeError(code, err.Error()) //nolint:errcheck
	return c.flush() == nil
}

func (c *conn) handleParse(body []byte) bool {
	if c.skipToSync {
		return true
	}
	p := payload{b: body}
	name, err1 := p.cstring()
	sql, err2 := p.cstring()
	nKinds, err3 := p.count()
	if err1 != nil || err2 != nil || err3 != nil {
		c.fail(errcode.ProtocolViolation, "malformed Parse message")
		return false
	}
	kinds := make([]sqltypes.Kind, 0, nKinds)
	for i := 0; i < nKinds; i++ {
		oid, err := p.int32()
		if err != nil {
			c.fail(errcode.ProtocolViolation, "malformed Parse message")
			return false
		}
		kinds = append(kinds, oidKind(oid))
	}
	if name != "" {
		if _, dup := c.stmts[name]; dup {
			return c.extendedError(errcode.DuplicateStmt, fmt.Errorf("prepared statement %q already exists", name))
		}
	}
	ps, err := c.sess.Prepare(sql)
	if err != nil {
		return c.extendedError(errcode.SyntaxOrExec, err)
	}
	c.stmts[name] = &preparedStmt{ps: ps, names: ps.ParamNames(), kinds: kinds}
	c.pw.begin(msgParseComplete)
	c.pw.end() //nolint:errcheck
	return true
}

//sqlcm:hotpath
func (c *conn) handleBind(body []byte) bool {
	if c.skipToSync {
		return true
	}
	p := payload{b: body}
	portalName, err1 := p.cbytes()
	stmtName, err2 := p.cbytes()
	if err1 != nil || err2 != nil {
		c.fail(errcode.ProtocolViolation, "malformed Bind message")
		return false
	}
	stmt, ok := c.stmts[string(stmtName)]
	if !ok {
		delete(c.portals, string(portalName))
		return c.extendedError(errcode.UndefinedStmt, fmt.Errorf("unknown prepared statement %q", stmtName))
	}
	pt := c.portals[string(portalName)]
	if pt == nil {
		pt = &portal{params: make(map[string]sqltypes.Value, len(stmt.names))}
		c.portals[string(portalName)] = pt
	}
	pt.stmt = stmt
	clear(pt.params)
	if ok, cont := c.bindParams(&p, pt); !ok {
		delete(c.portals, string(portalName))
		return cont
	}
	// Result format codes: present but ignored (responses are text).
	c.pw.begin(msgBindComplete)
	c.pw.end() //nolint:errcheck
	return true
}

// bindParams decodes Bind's parameters into pt.params. On failure, ok is
// false and cont says whether the connection goes on (an extended-protocol
// error) or ends (a malformed message).
func (c *conn) bindParams(p *payload, pt *portal) (ok, cont bool) {
	// Parameter format codes (all must be text).
	nFmt, err := p.count()
	if err != nil {
		c.fail(errcode.ProtocolViolation, "malformed Bind message")
		return false, false
	}
	for i := 0; i < nFmt; i++ {
		f, err := p.int16()
		if err != nil {
			c.fail(errcode.ProtocolViolation, "malformed Bind message")
			return false, false
		}
		if f != 0 {
			return false, c.extendedError(errcode.ProtocolViolation, fmt.Errorf("binary parameter format not supported"))
		}
	}
	nParams, err := p.count()
	if err != nil {
		c.fail(errcode.ProtocolViolation, "malformed Bind message")
		return false, false
	}
	names, kinds := pt.stmt.names, pt.stmt.kinds
	if nParams != len(names) {
		return false, c.extendedError(errcode.SyntaxOrExec,
			fmt.Errorf("statement has %d parameters, bind supplies %d", len(names), nParams))
	}
	for i, name := range names {
		raw, notNull, err := p.lenBytes()
		if err != nil {
			c.fail(errcode.ProtocolViolation, "malformed Bind message")
			return false, false
		}
		if !notNull {
			pt.params[name] = sqltypes.Null
			continue
		}
		kind := sqltypes.KindString
		if i < len(kinds) {
			kind = kinds[i]
		}
		v, err := decodeValue(kind, raw)
		if err != nil {
			return false, c.extendedError(errcode.SyntaxOrExec, err)
		}
		pt.params[name] = v
	}
	return true, true
}

// handleExecute runs a bound portal. The engine reads the portal's
// params only while the statement runs (exec.Ctx), so the next Bind may
// clear and refill the map in place.
//
//sqlcm:hotpath
func (c *conn) handleExecute(body []byte) bool {
	if c.skipToSync {
		return true
	}
	p := payload{b: body}
	portalName, err := p.cbytes()
	if err != nil {
		c.fail(errcode.ProtocolViolation, "malformed Execute message")
		return false
	}
	pt, ok := c.portals[string(portalName)]
	if !ok {
		return c.extendedError(errcode.UndefinedStmt, fmt.Errorf("unknown portal %q", portalName))
	}
	if c.shedStatement(pt.stmt.ps.SQL()) {
		return c.extendedError(errcode.Overloaded, errors.New(shedMessage))
	}
	w := c.beginWait(waitStmt)
	res, execErr := pt.stmt.ps.Exec(pt.params)
	c.endWait(w)
	c.srv.statements.Add(1)
	if execErr != nil {
		return c.extendedError(execErrCode(c.srv, execErr), execErr)
	}
	// Deviation from PostgreSQL: the RowDescription rides with Execute
	// (row shapes are only known after execution here), so clients skip
	// Describe entirely.
	c.writeResult(res)
	return true
}

func (c *conn) handleDescribe(body []byte) bool {
	if c.skipToSync {
		return true
	}
	p := payload{b: body}
	kind, err1 := p.byte()
	name, err2 := p.cstring()
	if err1 != nil || err2 != nil {
		c.fail(errcode.ProtocolViolation, "malformed Describe message")
		return false
	}
	switch kind {
	case 'S':
		if _, ok := c.stmts[name]; !ok {
			return c.extendedError(errcode.UndefinedStmt, fmt.Errorf("unknown prepared statement %q", name))
		}
	case 'P':
		if _, ok := c.portals[name]; !ok {
			return c.extendedError(errcode.UndefinedStmt, fmt.Errorf("unknown portal %q", name))
		}
	}
	// Documented deviation: row shapes are not known before execution, so
	// Describe always answers NoData; Execute carries the RowDescription.
	c.pw.begin(msgNoData)
	c.pw.end() //nolint:errcheck
	return true
}

func (c *conn) handleClose(body []byte) bool {
	if c.skipToSync {
		return true
	}
	p := payload{b: body}
	kind, err1 := p.byte()
	name, err2 := p.cstring()
	if err1 != nil || err2 != nil {
		c.fail(errcode.ProtocolViolation, "malformed Close message")
		return false
	}
	switch kind {
	case 'S':
		delete(c.stmts, name)
	case 'P':
		delete(c.portals, name)
	}
	c.pw.begin(msgCloseComplete)
	c.pw.end() //nolint:errcheck
	return true
}
