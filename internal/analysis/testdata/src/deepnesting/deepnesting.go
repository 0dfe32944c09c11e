// Package deepnesting seeds a nesting two calls deep inside one package:
// flush holds the plan latch and calls a helper whose helper takes the
// query latch. The repaired shape takes the count before the plan latch.
package deepnesting

import "sync"

type engine struct {
	//sqlcm:lock deep.plan
	//sqlcm:guards plans
	planMu sync.Mutex
	plans  map[string]int

	//sqlcm:lock deep.query
	//sqlcm:guards active
	queryMu sync.Mutex
	active  map[int]bool

	stranded int
}

// running takes the query latch.
func (e *engine) running() int {
	e.queryMu.Lock()
	defer e.queryMu.Unlock()
	return len(e.active)
}

// count reaches the query latch one call further down.
func (e *engine) count() int { return e.running() }

// flush reaches deep.query through count and running while holding
// deep.plan, and no declared path leads from deep.plan to deep.query.
func (e *engine) flush() {
	e.planMu.Lock()
	e.plans = map[string]int{}
	e.stranded = e.count()
	e.planMu.Unlock()
}

// flushFixed counts before taking the plan latch.
func (e *engine) flushFixed() {
	n := e.count()
	e.planMu.Lock()
	e.plans = map[string]int{}
	e.stranded = n
	e.planMu.Unlock()
}
