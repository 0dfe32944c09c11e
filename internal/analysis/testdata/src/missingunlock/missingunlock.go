// Package missingunlock seeds a lock leak: an early return path that
// skips the unlock.
package missingunlock

import "sync"

type registry struct {
	//sqlcm:lock reg.mu
	mu sync.Mutex
	m  map[string]int
}

// get leaks the lock on the miss path.
func (r *registry) get(k string) (int, bool) {
	r.mu.Lock()
	v, ok := r.m[k]
	if !ok {
		return 0, false
	}
	r.mu.Unlock()
	return v, true
}

// getDefer is the fixed shape: the defer covers every path.
func (r *registry) getDefer(k string) (int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.m[k]
	return v, ok
}
