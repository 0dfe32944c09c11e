// Package callbackunderlock seeds calls the lock-order walk cannot follow,
// made with a latch held: through an interface method and through a
// function value. The repaired shapes call after unlocking, call a
// closure of the same function (walked inline, so the nesting inside it
// is checked like any other), or carry an audited //sqlcm:allow.
package callbackunderlock

import "sync"

// Hooks is implemented elsewhere; its methods may take any latch.
type Hooks interface {
	Started(id int)
}

type registry struct {
	//sqlcm:lock cb.registry
	//sqlcm:guards active
	mu     sync.Mutex
	active map[int]bool

	//sqlcm:lock cb.stats after cb.registry
	//sqlcm:guards n
	statsMu sync.Mutex
	n       int

	//sqlcm:lock cb.other
	otherMu sync.Mutex
}

// register runs the hook under the registry latch.
func (r *registry) register(id int, h Hooks) {
	r.mu.Lock()
	r.active[id] = true
	h.Started(id)
	r.mu.Unlock()
}

// registerFixed runs the hook after unlocking.
func (r *registry) registerFixed(id int, h Hooks) {
	r.mu.Lock()
	r.active[id] = true
	r.mu.Unlock()
	h.Started(id)
}

// each runs fn under the registry latch.
func (r *registry) each(fn func(id int)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for id := range r.active {
		fn(id)
	}
}

// eachAudited documents an exception.
func (r *registry) eachAudited(fn func(id int)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for id := range r.active {
		//sqlcm:allow every caller passes a closure that only reads id
		fn(id)
	}
}

// countLocal calls its own closure under the latch: the closure is walked
// where it is called, so its cb.stats acquire is checked, and in order.
func (r *registry) countLocal() {
	bump := func() {
		r.statsMu.Lock()
		r.n++
		r.statsMu.Unlock()
	}
	r.mu.Lock()
	for range r.active {
		bump()
	}
	r.mu.Unlock()
}

// size is generic; an explicit instantiation is still a static call.
func size[T any](m map[int]T) int { return len(m) }

// sizeLocked calls an instantiated generic function, not a function value.
func (r *registry) sizeLocked() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return size[bool](r.active)
}

// touchLocal's closure takes cb.other, which is not declared after
// cb.registry: the inline walk reports the nesting at the acquire.
func (r *registry) touchLocal() {
	touch := func() {
		r.otherMu.Lock()
		r.otherMu.Unlock()
	}
	r.mu.Lock()
	touch()
	r.mu.Unlock()
}
