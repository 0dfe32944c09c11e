package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync/atomic"
	"time"

	"sqlcm/internal/engine"
	"sqlcm/internal/server/errcode"
	"sqlcm/internal/sqltypes"
)

// conn serves one client connection. Exactly one goroutine runs serve();
// it owns the engine session for the connection's whole lifetime. The
// shutdown path touches a conn only through atomics and the
// concurrency-safe net.Conn.
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

	// inCommand is set while a wire command is executing, so Shutdown can
	// distinguish in-flight connections (left to finish) from idle ones
	// (woken via read deadline).
	inCommand atomic.Bool
	// draining tells the command loop to exit after the current command.
	draining atomic.Bool
	// skipToSync is the extended-protocol error state: after an error,
	// further extended messages are discarded until Sync.
	skipToSync bool
}

// preparedStmt is a named statement plus the parameter kind hints the
// client declared at Parse time.
type preparedStmt struct {
	ps    *engine.Prepared
	kinds []sqltypes.Kind // by parameter position (ParamNames order)
}

// portal is a bound statement awaiting Execute.
type portal struct {
	stmt   *preparedStmt
	params map[string]sqltypes.Value
}

// beginDrain asks the connection to wind down: an idle connection blocked
// in a read is woken immediately; an in-flight one finishes its current
// command first (the loop re-checks draining after every command).
func (c *conn) beginDrain() {
	c.draining.Store(true)
	if !c.inCommand.Load() {
		if err := c.nc.SetReadDeadline(time.Now()); err != nil {
			// The wake-up cannot be armed: without it the idle read
			// would outlive the drain window, so cut the connection.
			c.nc.Close() //nolint:errcheck
		}
	}
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
	c.pw = newProtoWriter(c.nc)
	c.stmts = make(map[string]*preparedStmt)
	c.portals = make(map[string]*portal)

	user, app, ok := c.handshake()
	if !ok {
		return
	}
	c.sess = c.srv.cfg.NewSession(user, app, c.nc.RemoteAddr().String())
	c.sessp.Store(c.sess)
	defer c.sess.Close() //nolint:errcheck

	for {
		// Deadline before the draining check: beginDrain stores the flag
		// and then arms an immediate read deadline, so whichever order the
		// two goroutines interleave in, this loop either sees the flag here
		// or keeps the immediate deadline and wakes from the read below. A
		// deadline we cannot set means a dead connection: stop serving it.
		if err := c.nc.SetReadDeadline(time.Now().Add(c.srv.cfg.ReadTimeout)); err != nil {
			return
		}
		if c.draining.Load() {
			c.pw.writeError(errcode.AdminShutdown, "server is shutting down") //nolint:errcheck
			c.flush()                                                         //nolint:errcheck
			return
		}
		typ, body, err := c.pr.readMessage()
		if err != nil {
			return // disconnect, idle timeout, or drain wake-up
		}
		c.inCommand.Store(true)
		cont := c.dispatch(typ, body)
		c.inCommand.Store(false)
		if !cont {
			return
		}
	}
}

// dispatch handles one frontend message; false ends the connection.
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
	if err := c.nc.SetReadDeadline(time.Now().Add(c.srv.cfg.ReadTimeout)); err != nil {
		return "", "", false
	}
	body, err := c.pr.readStartup()
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
		if body, err = c.pr.readStartup(); err != nil {
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
		if err := c.nc.SetReadDeadline(time.Now().Add(c.srv.cfg.ReadTimeout)); err != nil {
			return "", "", false
		}
		typ, body, err := c.pr.readMessage()
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

// flush pushes buffered output under the write deadline.
func (c *conn) flush() error {
	if err := c.nc.SetWriteDeadline(time.Now().Add(c.srv.cfg.WriteTimeout)); err != nil {
		return err
	}
	return c.pw.flush()
}

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
	ctx, cancel := c.stmtCtx()
	res, execErr := c.sess.ExecContext(ctx, sql, nil)
	cancel()
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

// stmtCtx builds the per-statement context carrying the configured
// statement timeout (a no-op background context when disabled).
//
//sqlcm:ctx-root the statement lifetime starts at the wire front-end; there is no caller context above the connection loop
func (c *conn) stmtCtx() (context.Context, context.CancelFunc) {
	st := c.srv.cfg.StatementTimeout
	if st <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeoutCause(context.Background(), st, engine.CauseStatementTimeout)
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
	if err1 != nil || err2 != nil {
		c.fail(errcode.ProtocolViolation, "malformed Parse message")
		return false
	}
	nKinds, err := p.int16()
	if err != nil {
		c.fail(errcode.ProtocolViolation, "malformed Parse message")
		return false
	}
	kinds := make([]sqltypes.Kind, 0, nKinds)
	for i := 0; i < int(nKinds); i++ {
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
	c.stmts[name] = &preparedStmt{ps: ps, kinds: kinds}
	c.pw.begin(msgParseComplete)
	c.pw.end() //nolint:errcheck
	return true
}

func (c *conn) handleBind(body []byte) bool {
	if c.skipToSync {
		return true
	}
	p := payload{b: body}
	portalName, err1 := p.cstring()
	stmtName, err2 := p.cstring()
	if err1 != nil || err2 != nil {
		c.fail(errcode.ProtocolViolation, "malformed Bind message")
		return false
	}
	stmt, ok := c.stmts[stmtName]
	if !ok {
		return c.extendedError(errcode.UndefinedStmt, fmt.Errorf("unknown prepared statement %q", stmtName))
	}
	// Parameter format codes (all must be text).
	nFmt, err := p.int16()
	if err != nil {
		c.fail(errcode.ProtocolViolation, "malformed Bind message")
		return false
	}
	for i := 0; i < int(nFmt); i++ {
		f, err := p.int16()
		if err != nil {
			c.fail(errcode.ProtocolViolation, "malformed Bind message")
			return false
		}
		if f != 0 {
			return c.extendedError(errcode.ProtocolViolation, fmt.Errorf("binary parameter format not supported"))
		}
	}
	nParams, err := p.int16()
	if err != nil {
		c.fail(errcode.ProtocolViolation, "malformed Bind message")
		return false
	}
	names := stmt.ps.ParamNames()
	if int(nParams) != len(names) {
		return c.extendedError(errcode.SyntaxOrExec,
			fmt.Errorf("statement has %d parameters, bind supplies %d", len(names), nParams))
	}
	params := make(map[string]sqltypes.Value, nParams)
	for i := 0; i < int(nParams); i++ {
		raw, notNull, err := p.lenBytes()
		if err != nil {
			c.fail(errcode.ProtocolViolation, "malformed Bind message")
			return false
		}
		if !notNull {
			params[names[i]] = sqltypes.Null
			continue
		}
		kind := sqltypes.KindString
		if i < len(stmt.kinds) {
			kind = stmt.kinds[i]
		}
		v, err := decodeValue(kind, string(raw))
		if err != nil {
			return c.extendedError(errcode.SyntaxOrExec, err)
		}
		params[names[i]] = v
	}
	// Result format codes: present but ignored (responses are text).
	c.portals[portalName] = &portal{stmt: stmt, params: params}
	c.pw.begin(msgBindComplete)
	c.pw.end() //nolint:errcheck
	return true
}

func (c *conn) handleExecute(body []byte) bool {
	if c.skipToSync {
		return true
	}
	p := payload{b: body}
	portalName, err := p.cstring()
	if err != nil {
		c.fail(errcode.ProtocolViolation, "malformed Execute message")
		return false
	}
	pt, ok := c.portals[portalName]
	if !ok {
		return c.extendedError(errcode.UndefinedStmt, fmt.Errorf("unknown portal %q", portalName))
	}
	if c.shedStatement(pt.stmt.ps.SQL()) {
		return c.extendedError(errcode.Overloaded, errors.New(shedMessage))
	}
	ctx, cancel := c.stmtCtx()
	res, execErr := pt.stmt.ps.ExecContext(ctx, pt.params)
	cancel()
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
