// Package enqueue seeds an outbox enqueue inside a critical section.
// Enqueue paths run arbitrary backpressure logic; they must never run
// under a monitoring latch.
package enqueue

import "sync"

type outbox struct{}

func (o *outbox) TryEnqueue(v int) bool { return true }

type dispatcher struct {
	//sqlcm:lock disp.mu
	mu  sync.Mutex
	box *outbox
}

func (d *dispatcher) fire(v int) {
	d.mu.Lock()
	d.box.TryEnqueue(v)
	d.mu.Unlock()
}

// fireAfter is the fixed shape: enqueue after the critical section.
func (d *dispatcher) fireAfter(v int) {
	d.mu.Lock()
	d.mu.Unlock()
	d.box.TryEnqueue(v)
}
