package engine

import "fmt"

// CancelReason classifies a defensive statement cancellation: the engine
// (or the network front-end driving it) killed the statement to protect
// itself, and the reason is a monitoring probe (Query.Cancel_Reason) so
// rules can observe the system defending itself.
type CancelReason int32

// Cancellation reasons, in the order they were added to the schema.
const (
	// CancelNone marks a statement that was never defensively cancelled.
	CancelNone CancelReason = iota
	// CancelAdmin is an explicit cancel: Engine.CancelQuery, typically a
	// rule's CANCEL action or an operator.
	CancelAdmin
	// CancelTimeout is a statement-deadline expiry.
	CancelTimeout
	// CancelShed is admission control refusing the statement while the
	// monitor is overloaded.
	CancelShed
	// CancelDrain is a server shutdown cancelling in-flight statements
	// that outlived the graceful part of the drain window.
	CancelDrain
)

// String renders the reason as the Cancel_Reason probe value.
func (r CancelReason) String() string {
	switch r {
	case CancelAdmin:
		return "admin"
	case CancelTimeout:
		return "timeout"
	case CancelShed:
		return "shed"
	case CancelDrain:
		return "drain"
	default:
		return ""
	}
}

// CancelledError wraps a statement failure caused by a defensive
// cancellation. Network front-ends detect it with errors.As and answer a
// retryable wire error instead of a generic execution failure.
type CancelledError struct {
	Reason CancelReason
	Err    error
}

// Error implements error.
func (e *CancelledError) Error() string {
	return fmt.Sprintf("engine: statement cancelled (%s): %v", e.Reason, e.Err)
}

// Unwrap exposes the underlying execution error.
func (e *CancelledError) Unwrap() error { return e.Err }

// CancelCurrent cancels the session's in-flight statement, if any,
// recording the given reason: the server's statement timeouts and drain
// cancels come here (Engine.CancelQuery is the same cancel, by query id).
// Unlike every other Session method it is safe to call from any
// goroutine — it touches only atomics and the transaction manager —
// because the server's watchdog and shutdown path cancel statements owned
// by connection goroutines.
func (s *Session) CancelCurrent(reason CancelReason) bool {
	qi := s.cur.Load()
	if qi == nil || qi.phase.Load() != phaseRunning {
		return false
	}
	qi.MarkCancelled(reason)
	return s.e.tm.Cancel(qi.TxnID)
}
