// Package lck is the callee side of the crosssummary fixture: a manager
// whose latch belongs to the lock.manager class, reached through a method
// and through a package function.
package lck

import "sync"

// Mgr guards its state with a classified latch.
type Mgr struct {
	//sqlcm:lock lock.manager
	mu   sync.Mutex
	held map[int]bool
}

var shared Mgr

// Acquire takes the lock.manager latch.
func (m *Mgr) Acquire(id int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.held == nil {
		m.held = map[int]bool{}
	}
	m.held[id] = true
}

// Acquire reaches the same latch through the shared manager.
func Acquire(id int) { shared.Acquire(id) }
