// Package hotpathlock seeds a hot-path function locking a mutex that has
// no //sqlcm:lock annotation: unclassed locks are invisible to the
// runtime lockdep build, so the monitoring hot path must not take them.
package hotpathlock

import "sync"

type engine struct {
	// Classified: fine to lock anywhere, including hot paths.
	//sqlcm:lock hot.mu
	mu sync.Mutex

	// Unclassified: invisible to lockdep.
	rawMu sync.Mutex
}

//sqlcm:hotpath
func (e *engine) dispatch() {
	e.mu.Lock()
	e.mu.Unlock()
	e.rawMu.Lock()
	e.rawMu.Unlock()
}

// cold paths may use unclassified mutexes.
func (e *engine) cold() {
	e.rawMu.Lock()
	e.rawMu.Unlock()
}
