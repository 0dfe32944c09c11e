package server

import (
	"fmt"
	"net"
	"time"

	"sqlcm/internal/sqltypes"
)

// Client is a minimal synchronous protocol client: enough for the load
// harness, the smoke tier and the wire tests. One Client drives one
// connection from one goroutine.
type Client struct {
	nc      net.Conn
	pr      *protoReader
	pw      *protoWriter
	timeout time.Duration
}

// ClientConfig tunes a Dial.
type ClientConfig struct {
	User     string
	App      string
	Password string
	// Timeout bounds the dial and each request/response exchange. 0 means
	// the default of 30s.
	Timeout time.Duration
}

// Rows is a decoded query result.
type Rows struct {
	Columns []string
	Kinds   []sqltypes.Kind
	Rows    [][]sqltypes.Value
	Tag     string
}

// Dial connects, performs the startup/auth handshake and waits for
// ReadyForQuery.
func Dial(addr string, cfg ClientConfig) (*Client, error) {
	if cfg.Timeout == 0 {
		cfg.Timeout = 30 * time.Second
	}
	nc, err := net.DialTimeout("tcp", addr, cfg.Timeout)
	if err != nil {
		return nil, err
	}
	c := &Client{nc: nc, pr: newProtoReader(nc), pw: newProtoWriter(nc), timeout: cfg.Timeout}
	c.deadline(cfg.Timeout)
	params := map[string]string{"user": cfg.User}
	if cfg.App != "" {
		params["application_name"] = cfg.App
	}
	if err := c.pw.writeStartup(params); err != nil {
		nc.Close() //nolint:errcheck
		return nil, err
	}
	if err := c.auth(cfg); err != nil {
		nc.Close() //nolint:errcheck
		return nil, err
	}
	return c, nil
}

func (c *Client) deadline(d time.Duration) {
	c.nc.SetDeadline(time.Now().Add(d)) //nolint:errcheck
}

// auth consumes the authentication exchange up to the first ReadyForQuery.
func (c *Client) auth(cfg ClientConfig) error {
	for {
		typ, body, err := c.pr.readMessage()
		if err != nil {
			return err
		}
		switch typ {
		case msgAuth:
			p := payload{b: body}
			code, err := p.int32()
			if err != nil {
				return err
			}
			switch code {
			case authOK:
			case authCleartext:
				c.pw.begin(msgPassword)
				c.pw.putString(cfg.Password)
				if err := c.pw.end(); err != nil {
					return err
				}
				if err := c.pw.flush(); err != nil {
					return err
				}
			default:
				return fmt.Errorf("server: unsupported auth code %d", code)
			}
		case msgParameterStatus, msgBackendKeyData:
			// informational
		case msgReadyForQuery:
			return nil
		case msgErrorResponse:
			return parseError(body)
		default:
			return fmt.Errorf("server: unexpected message %q during auth", typ)
		}
	}
}

// Close terminates the connection politely.
func (c *Client) Close() error {
	c.pw.begin(msgTerminate)
	c.pw.end()   //nolint:errcheck
	c.pw.flush() //nolint:errcheck
	return c.nc.Close()
}

// Query runs one statement through the simple-query protocol.
func (c *Client) Query(sql string) (*Rows, error) {
	c.deadline(c.timeout)
	c.pw.begin(msgQuery)
	c.pw.putString(sql)
	if err := c.pw.end(); err != nil {
		return nil, err
	}
	if err := c.pw.flush(); err != nil {
		return nil, err
	}
	return c.readResult(true)
}

// Prepare creates a named server-side statement. kinds are per-parameter
// type hints in the statement's first-appearance @param order (missing
// entries default to string).
func (c *Client) Prepare(name, sql string, kinds ...sqltypes.Kind) error {
	c.deadline(c.timeout)
	c.pw.begin(msgParse)
	c.pw.putString(name)
	c.pw.putString(sql)
	c.pw.putInt16(int16(len(kinds)))
	for _, k := range kinds {
		c.pw.putInt32(kindOID(k))
	}
	if err := c.pw.end(); err != nil {
		return err
	}
	if err := c.sync(); err != nil {
		return err
	}
	return c.drainToReady(msgParseComplete)
}

// ExecPrepared binds values (text format, nil-pointer semantics via NULL
// handled by sqltypes.Null) to a named statement and executes it.
func (c *Client) ExecPrepared(name string, values ...sqltypes.Value) (*Rows, error) {
	c.deadline(c.timeout)
	c.pw.begin(msgBind)
	c.pw.putString("") // unnamed portal
	c.pw.putString(name)
	c.pw.putInt16(0) // no format codes: all text
	c.pw.putInt16(int16(len(values)))
	for _, v := range values {
		c.pw.putValue(v)
	}
	c.pw.putInt16(0) // no result format codes
	if err := c.pw.end(); err != nil {
		return nil, err
	}
	c.pw.begin(msgExecute)
	c.pw.putString("") // unnamed portal
	c.pw.putInt32(0)   // no row limit
	if err := c.pw.end(); err != nil {
		return nil, err
	}
	if err := c.sync(); err != nil {
		return nil, err
	}
	return c.readResult(false)
}

// sync frames and flushes a Sync message.
func (c *Client) sync() error {
	c.pw.begin(msgSync)
	if err := c.pw.end(); err != nil {
		return err
	}
	return c.pw.flush()
}

// drainToReady consumes messages until ReadyForQuery, requiring that the
// expected completion message was seen and surfacing any error response.
func (c *Client) drainToReady(want byte) error {
	var sawWant bool
	var wireErr error
	for {
		typ, body, err := c.pr.readMessage()
		if err != nil {
			return err
		}
		switch typ {
		case want:
			sawWant = true
		case msgErrorResponse:
			wireErr = parseError(body)
		case msgReadyForQuery:
			if wireErr != nil {
				return wireErr
			}
			if !sawWant {
				return fmt.Errorf("server: missing %q completion", want)
			}
			return nil
		}
	}
}

// readResult consumes one statement's response up to ReadyForQuery.
func (c *Client) readResult(simple bool) (*Rows, error) {
	res := &Rows{}
	var wireErr error
	for {
		typ, body, err := c.pr.readMessage()
		if err != nil {
			return nil, err
		}
		p := payload{b: body}
		switch typ {
		case msgRowDescription:
			n, err := p.count()
			if err != nil {
				return nil, err
			}
			res.Columns = make([]string, 0, n)
			res.Kinds = make([]sqltypes.Kind, 0, n)
			for i := 0; i < int(n); i++ {
				name, err := p.cstring()
				if err != nil {
					return nil, err
				}
				p.int32() //nolint:errcheck // table oid
				p.int16() //nolint:errcheck // attr number
				oid, err := p.int32()
				if err != nil {
					return nil, err
				}
				p.int16() //nolint:errcheck // size
				p.int32() //nolint:errcheck // modifier
				p.int16() //nolint:errcheck // format
				res.Columns = append(res.Columns, name)
				res.Kinds = append(res.Kinds, oidKind(oid))
			}
		case msgDataRow:
			n, err := p.count()
			if err != nil {
				return nil, err
			}
			row := make([]sqltypes.Value, 0, n)
			for i := 0; i < int(n); i++ {
				raw, notNull, err := p.lenBytes()
				if err != nil {
					return nil, err
				}
				if !notNull {
					row = append(row, sqltypes.Null)
					continue
				}
				kind := sqltypes.KindString
				if i < len(res.Kinds) {
					kind = res.Kinds[i]
				}
				v, err := decodeValue(kind, raw)
				if err != nil {
					return nil, err
				}
				row = append(row, v)
			}
			res.Rows = append(res.Rows, row)
		case msgCommandComplete:
			tag, _ := p.cstring()
			res.Tag = tag
		case msgEmptyQueryResp, msgParseComplete, msgBindComplete, msgCloseComplete, msgNoData:
			// structural acknowledgements
		case msgErrorResponse:
			wireErr = parseError(body)
			if simple {
				// Simple protocol still ends with ReadyForQuery.
				continue
			}
		case msgReadyForQuery:
			if wireErr != nil {
				return nil, wireErr
			}
			return res, nil
		default:
			return nil, fmt.Errorf("server: unexpected message %q in result", typ)
		}
	}
}
