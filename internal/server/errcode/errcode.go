// Package errcode is the single source of truth for the SQLSTATE codes
// SQLCM's wire front-end emits. Every code carries its retryability
// class (may the client transparently retry?) and the monitored event a
// refusal of that kind maps to, so the wire taxonomy, the client retry
// policy and the monitoring schema cannot drift apart — there is exactly
// one table to change.
//
// The server writes only codes from this table (protoWriter.writeError
// takes a Code, not a string), and the wire tests in internal/server pin
// the code each refusal and failure path puts on the wire.
package errcode

import "sort"

// Code describes one SQLSTATE this system can put on the wire.
type Code struct {
	// SQLSTATE is the five-character wire code (class + subclass).
	SQLSTATE string
	// Name is the stable symbolic name, for logs and documentation.
	Name string
	// Retryable reports whether a client may transparently retry after
	// receiving this code (the statement was refused defensively, not
	// rejected as invalid).
	Retryable bool
	// Event names the monitored event a refusal with this code maps to
	// ("" when the refusal is not itself a monitored event). The serving
	// path fires exactly this event when it answers with the code, so
	// rules can observe the system defending itself.
	Event string
}

// The wire-error taxonomy. Grouped by SQLSTATE class: 08 connection
// exception, 26/42 statement errors, 28 authentication, 53 insufficient
// resources (retryable refusals), 57 operator intervention (retryable
// cancellations).
var (
	// ProtocolViolation is a malformed or unexpected protocol message.
	ProtocolViolation = Code{SQLSTATE: "08P01", Name: "protocol_violation"}
	// UndefinedStmt names an unknown prepared statement or portal.
	UndefinedStmt = Code{SQLSTATE: "26000", Name: "undefined_statement"}
	// InvalidPassword is a failed cleartext-password authentication.
	InvalidPassword = Code{SQLSTATE: "28P01", Name: "invalid_password"}
	// SyntaxOrExec is a statement that failed to parse, plan or execute.
	SyntaxOrExec = Code{SQLSTATE: "42601", Name: "syntax_or_execution_error"}
	// DuplicateStmt re-declares an existing named prepared statement.
	DuplicateStmt = Code{SQLSTATE: "42P05", Name: "duplicate_prepared_statement"}
	// TooManyConns is the admission-control refusal once MaxConns slots
	// (plus the AdmissionWait backpressure window) are exhausted.
	TooManyConns = Code{SQLSTATE: "53300", Name: "too_many_connections", Retryable: true}
	// Overloaded is a statement shed because the monitor's dispatch
	// budget is blown; the statement never parsed, planned or locked.
	Overloaded = Code{SQLSTATE: "53400", Name: "monitor_overloaded", Retryable: true, Event: "Query.Cancelled"}
	// QueryCancelled is a statement cancelled defensively mid-flight:
	// statement timeout, server drain, or an explicit admin cancel.
	QueryCancelled = Code{SQLSTATE: "57014", Name: "query_cancelled", Retryable: true, Event: "Query.Cancelled"}
	// AdminShutdown refuses work because the server is shutting down.
	AdminShutdown = Code{SQLSTATE: "57P01", Name: "admin_shutdown", Retryable: true}
)

// all lists every registered code. Keep in sync with the vars above —
// TestTableIsComplete cross-checks it against the package's declarations.
var all = []Code{
	ProtocolViolation,
	UndefinedStmt,
	InvalidPassword,
	SyntaxOrExec,
	DuplicateStmt,
	TooManyConns,
	Overloaded,
	QueryCancelled,
	AdminShutdown,
}

// All returns every registered code, sorted by SQLSTATE.
func All() []Code {
	out := append([]Code(nil), all...)
	sort.Slice(out, func(i, j int) bool { return out[i].SQLSTATE < out[j].SQLSTATE })
	return out
}

// BySQLSTATE resolves a wire code string back to its table entry, for
// clients classifying server responses.
func BySQLSTATE(s string) (Code, bool) {
	for _, c := range all {
		if c.SQLSTATE == s {
			return c, true
		}
	}
	return Code{}, false
}

// Retryable reports whether the given wire code string is a retryable
// refusal. Unknown codes are not retryable: an unclassified error must
// surface, not be retried into.
func Retryable(s string) bool {
	c, ok := BySQLSTATE(s)
	return ok && c.Retryable
}
