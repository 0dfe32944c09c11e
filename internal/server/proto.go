// Package server is SQLCM's network front-end: a TCP server speaking a
// PostgreSQL-v3-style message protocol (startup/auth handshake, simple
// query, parse/bind/execute for prepared statements, row descriptions and
// data rows, error responses, terminate), mapping one goroutine-owned
// engine.Session onto each connection.
//
// The protocol is v3-*style*, not v3-compatible: framing, message type
// bytes and the startup/auth exchange follow the PostgreSQL layout, but
// two simplifications are documented deviations — Describe always answers
// NoData (row shapes are not known before execution in this engine), and
// Execute emits its own RowDescription before the data rows so a client
// never needs Describe. Parameters are the engine's named @params; Parse
// carries kind hints per parameter (in first-appearance order) and Bind
// sends text-format values decoded through those hints.
package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"strconv"
	"time"

	"sqlcm/internal/server/errcode"
	"sqlcm/internal/sqltypes"
)

// Protocol constants.
const (
	protoVersion = 196608 // 3.0, as in PostgreSQL
	sslRequest   = 80877103
	cancelReqest = 80877102

	// maxMessageLen bounds one wire message (length prefix included); a
	// peer announcing more is cut off rather than ballooning memory.
	maxMessageLen = 16 << 20
)

// Backend (server→client) message type bytes.
const (
	msgAuth            = 'R'
	msgBackendKeyData  = 'K'
	msgParameterStatus = 'S'
	msgReadyForQuery   = 'Z'
	msgRowDescription  = 'T'
	msgDataRow         = 'D'
	msgCommandComplete = 'C'
	msgErrorResponse   = 'E'
	msgParseComplete   = '1'
	msgBindComplete    = '2'
	msgCloseComplete   = '3'
	msgNoData          = 'n'
	msgEmptyQueryResp  = 'I'
)

// Frontend (client→server) message type bytes.
const (
	msgQuery     = 'Q'
	msgParse     = 'P'
	msgBind      = 'B'
	msgExecute   = 'E'
	msgDescribe  = 'D'
	msgSync      = 'S'
	msgCloseStmt = 'C'
	msgTerminate = 'X'
	msgPassword  = 'p'
)

// Authentication codes carried by msgAuth.
const (
	authOK        = 0
	authCleartext = 3
)

// Transaction-status bytes in ReadyForQuery.
const (
	txIdle   = 'I'
	txInTxn  = 'T'
	txFailed = 'E'
)

// Type oids for RowDescription, mirroring the PostgreSQL values for the
// kinds this engine has.
const (
	oidBool   = 16
	oidInt8   = 20
	oidText   = 25
	oidFloat8 = 701
	oidTstz   = 1184
)

// kindOID maps an engine kind onto its wire oid.
func kindOID(k sqltypes.Kind) int32 {
	switch k {
	case sqltypes.KindInt:
		return oidInt8
	case sqltypes.KindFloat:
		return oidFloat8
	case sqltypes.KindBool:
		return oidBool
	case sqltypes.KindTime:
		return oidTstz
	default:
		return oidText
	}
}

// oidKind maps a wire oid back onto an engine kind (0 and unknown → string).
func oidKind(oid int32) sqltypes.Kind {
	switch oid {
	case oidInt8:
		return sqltypes.KindInt
	case oidFloat8:
		return sqltypes.KindFloat
	case oidBool:
		return sqltypes.KindBool
	case oidTstz:
		return sqltypes.KindTime
	default:
		return sqltypes.KindString
	}
}

// wireTimeFormat renders DATETIME values on the wire with full precision.
const wireTimeFormat = time.RFC3339Nano

// appendValue appends v in text format to dst; ok=false marks NULL, with
// dst unchanged.
func appendValue(dst []byte, v sqltypes.Value) (_ []byte, ok bool) {
	switch v.Kind() {
	case sqltypes.KindNull:
		return dst, false
	case sqltypes.KindInt:
		return strconv.AppendInt(dst, v.Int(), 10), true
	case sqltypes.KindFloat:
		return strconv.AppendFloat(dst, v.Float(), 'g', -1, 64), true
	case sqltypes.KindBool:
		if v.Bool() {
			return append(dst, 't'), true
		}
		return append(dst, 'f'), true
	case sqltypes.KindTime:
		return v.Time().AppendFormat(dst, wireTimeFormat), true
	default:
		return append(dst, v.Str()...), true
	}
}

// decodeValue parses one text-format value into the hinted kind. raw
// belongs to the message body and is not kept: a string value is copied
// out, and the numbers parse through a conversion that does not escape.
func decodeValue(kind sqltypes.Kind, raw []byte) (sqltypes.Value, error) {
	switch kind {
	case sqltypes.KindInt:
		n, err := strconv.ParseInt(string(raw), 10, 64)
		if err != nil {
			return sqltypes.Null, fmt.Errorf("server: bad int parameter %q", raw)
		}
		return sqltypes.NewInt(n), nil
	case sqltypes.KindFloat:
		f, err := strconv.ParseFloat(string(raw), 64)
		if err != nil {
			return sqltypes.Null, fmt.Errorf("server: bad float parameter %q", raw)
		}
		return sqltypes.NewFloat(f), nil
	case sqltypes.KindBool:
		switch string(raw) {
		case "t", "true", "TRUE":
			return sqltypes.NewBool(true), nil
		case "f", "false", "FALSE":
			return sqltypes.NewBool(false), nil
		}
		return sqltypes.Null, fmt.Errorf("server: bad bool parameter %q", raw)
	case sqltypes.KindTime:
		ts, err := time.Parse(wireTimeFormat, string(raw))
		if err != nil {
			return sqltypes.Null, fmt.Errorf("server: bad time parameter %q", raw)
		}
		return sqltypes.NewTime(ts), nil
	default:
		return sqltypes.NewString(string(raw)), nil
	}
}

// ---------------------------------------------------------------------------
// Message reader
// ---------------------------------------------------------------------------

// protoReader reads framed protocol messages off a connection. A body it
// returns is valid until the next read: the reader reuses one buffer for
// every body that fits maxKeptBody, so a caller copies what it keeps.
type protoReader struct {
	r    *bufio.Reader
	body []byte // reused for bodies of at most maxKeptBody bytes
}

// maxKeptBody caps the body buffer a reader keeps between messages: an
// idle connection holds at most this much beside its read buffer.
const maxKeptBody = 8 << 10

func newProtoReader(c io.Reader) *protoReader {
	return &protoReader{r: bufio.NewReaderSize(c, 8<<10)}
}

// readMessage reads one typed message: a type byte, an int32 length
// (including itself), and the payload.
func (pr *protoReader) readMessage() (byte, []byte, error) {
	typ, err := pr.r.ReadByte()
	if err != nil {
		return 0, nil, err
	}
	payload, err := pr.readLenPayload()
	if err != nil {
		return 0, nil, err
	}
	return typ, payload, nil
}

// readStartup reads the untyped startup message (length + payload).
func (pr *protoReader) readStartup() ([]byte, error) {
	return pr.readLenPayload()
}

func (pr *protoReader) readLenPayload() ([]byte, error) {
	hdr, err := pr.r.Peek(4)
	if err != nil {
		return nil, err
	}
	n := int32(binary.BigEndian.Uint32(hdr))
	pr.r.Discard(4) //nolint:errcheck // the 4 bytes are buffered
	if n < 4 || n > maxMessageLen {
		return nil, fmt.Errorf("server: bad message length %d", n)
	}
	// Read in bounded chunks, growing as bytes actually arrive: a hostile
	// length prefix on a tiny input costs one chunk of allocation, not the
	// full declared size.
	const chunk = 64 << 10
	want := int(n - 4)
	body := pr.body[:0]
	for len(body) < want {
		off := len(body)
		step := min(want-off, chunk)
		body = slices.Grow(body, step)[:off+step]
		if _, err := io.ReadFull(pr.r, body[off:]); err != nil {
			return nil, err
		}
	}
	if cap(body) <= maxKeptBody {
		pr.body = body
	}
	return body, nil
}

// payload is a cursor over one message body.
type payload struct {
	b []byte
}

func (p *payload) remaining() int { return len(p.b) }

func (p *payload) int32() (int32, error) {
	if len(p.b) < 4 {
		return 0, io.ErrUnexpectedEOF
	}
	v := int32(binary.BigEndian.Uint32(p.b))
	p.b = p.b[4:]
	return v, nil
}

func (p *payload) int16() (int16, error) {
	if len(p.b) < 2 {
		return 0, io.ErrUnexpectedEOF
	}
	v := int16(binary.BigEndian.Uint16(p.b))
	p.b = p.b[2:]
	return v, nil
}

// count reads an int16 element count. A negative one is a protocol
// violation: it would size a slice or a loop below zero.
func (p *payload) count() (int, error) {
	n, err := p.int16()
	if err == nil && n < 0 {
		err = errNegativeCount
	}
	return int(n), err
}

// errNegativeCount is the error a peer's negative element count becomes.
var errNegativeCount = &WireError{Severity: "ERROR", Code: errcode.ProtocolViolation.SQLSTATE, Message: "negative element count"}

func (p *payload) byte() (byte, error) {
	if len(p.b) < 1 {
		return 0, io.ErrUnexpectedEOF
	}
	v := p.b[0]
	p.b = p.b[1:]
	return v, nil
}

// cstring reads a NUL-terminated string, copied out of the body.
func (p *payload) cstring() (string, error) {
	b, err := p.cbytes()
	return string(b), err
}

// cbytes reads a NUL-terminated string in place: the bytes alias the
// body, for lookups (m[string(b)] does not copy) and parsing.
func (p *payload) cbytes() ([]byte, error) {
	for i, c := range p.b {
		if c == 0 {
			b := p.b[:i]
			p.b = p.b[i+1:]
			return b, nil
		}
	}
	return nil, io.ErrUnexpectedEOF
}

// lenBytes reads an int32 length then that many bytes; -1 means NULL.
func (p *payload) lenBytes() ([]byte, bool, error) {
	n, err := p.int32()
	if err != nil {
		return nil, false, err
	}
	if n < 0 {
		return nil, false, nil
	}
	if int(n) > len(p.b) {
		return nil, false, io.ErrUnexpectedEOF
	}
	v := p.b[:n]
	p.b = p.b[n:]
	return v, true, nil
}

// ---------------------------------------------------------------------------
// Message writer
// ---------------------------------------------------------------------------

// protoWriter builds and flushes framed protocol messages. Messages are
// buffered; Flush pushes them onto the wire.
type protoWriter struct {
	w     *bufio.Writer
	buf   []byte // current message under construction, header first
	inMsg bool
}

func newProtoWriter(c io.Writer) *protoWriter {
	return &protoWriter{w: bufio.NewWriterSize(c, 8<<10)}
}

// begin starts a typed message, reserving its 5-byte header (type byte
// and length, patched by end).
func (pw *protoWriter) begin(typ byte) {
	pw.buf = append(pw.buf[:0], typ, 0, 0, 0, 0)
	pw.inMsg = true
}

func (pw *protoWriter) putByte(b byte) { pw.buf = append(pw.buf, b) }
func (pw *protoWriter) putInt16(v int16) {
	pw.buf = append(pw.buf, byte(v>>8), byte(v))
}
func (pw *protoWriter) putInt32(v int32) {
	pw.buf = append(pw.buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
func (pw *protoWriter) putString(s string) {
	pw.buf = append(pw.buf, s...)
	pw.buf = append(pw.buf, 0)
}

// putValue appends v in text format behind its length, or -1 for NULL.
func (pw *protoWriter) putValue(v sqltypes.Value) {
	at := len(pw.buf)
	pw.putInt32(-1)
	if b, ok := appendValue(pw.buf, v); ok {
		binary.BigEndian.PutUint32(b[at:], uint32(len(b)-at-4))
		pw.buf = b
	}
}

// end frames the message under construction into the output buffer.
func (pw *protoWriter) end() error {
	if !pw.inMsg {
		return fmt.Errorf("server: end without begin")
	}
	pw.inMsg = false
	binary.BigEndian.PutUint32(pw.buf[1:5], uint32(len(pw.buf)-1))
	_, err := pw.w.Write(pw.buf)
	return err
}

// flush pushes buffered messages to the connection.
func (pw *protoWriter) flush() error { return pw.w.Flush() }

// writeStartup writes the untyped startup message (client side).
func (pw *protoWriter) writeStartup(params map[string]string) error {
	body := make([]byte, 0, 64)
	var v [4]byte
	binary.BigEndian.PutUint32(v[:], uint32(protoVersion))
	body = append(body, v[:]...)
	for k, val := range params {
		body = append(body, k...)
		body = append(body, 0)
		body = append(body, val...)
		body = append(body, 0)
	}
	body = append(body, 0)
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)+4))
	if _, err := pw.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := pw.w.Write(body); err != nil {
		return err
	}
	return pw.w.Flush()
}

// ---------------------------------------------------------------------------
// Error responses
// ---------------------------------------------------------------------------

// WireError is an ErrorResponse decoded from (or destined for) the wire.
type WireError struct {
	Severity string
	Code     string
	Message  string
}

// Error implements error.
func (e *WireError) Error() string {
	return fmt.Sprintf("%s (%s): %s", e.Severity, e.Code, e.Message)
}

// writeError frames one ErrorResponse. The code comes from the
// internal/server/errcode table — the single source for the wire
// taxonomy.
func (pw *protoWriter) writeError(code errcode.Code, msg string) error {
	pw.begin(msgErrorResponse)
	pw.putByte('S')
	pw.putString("ERROR")
	pw.putByte('C')
	pw.putString(code.SQLSTATE)
	pw.putByte('M')
	pw.putString(msg)
	pw.putByte(0)
	return pw.end()
}

// parseError decodes an ErrorResponse payload.
func parseError(body []byte) *WireError {
	e := &WireError{Severity: "ERROR"}
	p := payload{b: body}
	for {
		f, err := p.byte()
		if err != nil || f == 0 {
			return e
		}
		v, err := p.cstring()
		if err != nil {
			return e
		}
		switch f {
		case 'S':
			e.Severity = v
		case 'C':
			e.Code = v
		case 'M':
			e.Message = v
		}
	}
}
