// Package sendunderlock seeds a blocking channel send inside a critical
// section, plus the two legal shapes: select-with-default and an audited
// //sqlcm:allow exception.
package sendunderlock

import "sync"

type notifier struct {
	//sqlcm:lock notify.mu
	mu sync.Mutex
	ch chan int
}

// publish can block on the send while holding the latch: any consumer
// that needs the latch to drain the channel deadlocks.
func (n *notifier) publish(v int) {
	n.mu.Lock()
	n.ch <- v
	n.mu.Unlock()
}

// tryPublish cannot block: select with default.
func (n *notifier) tryPublish(v int) {
	n.mu.Lock()
	select {
	case n.ch <- v:
	default:
	}
	n.mu.Unlock()
}

// publishBuffered documents an audited exception.
func (n *notifier) publishBuffered(v int) {
	n.mu.Lock()
	//sqlcm:allow ch is buffered by construction; the send cannot block
	n.ch <- v
	n.mu.Unlock()
}
