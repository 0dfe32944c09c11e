// Package lockcheck turns SQLCM's latch hierarchy into a checked contract.
//
// Every mutex on the monitoring hot path is declared to belong to a lock
// class with a //sqlcm:lock annotation on its field:
//
//	//sqlcm:lock sim.clock after rules.timer
//	mu lockcheck.Mutex
//
// The annotations compile into a partial-order DAG ("sim.clock after
// rules.timer" means rules.timer may be held when acquiring sim.clock).
// Two independent enforcers consume it:
//
//   - the lockorder, lockunlock, locksend and lockclass analyzers of
//     internal/analysis (run by sqlcm-vet -code): a type-checked static
//     pass that walks every function, tracks the set of held classes
//     across calls, and reports acquisitions that violate the declared
//     order, Lock calls without a dominating Unlock, and locks held
//     across channel sends or outbox enqueues.
//
//   - a runtime lockdep, compiled in with -tags sqlcmlockdep: the Mutex
//     and RWMutex wrappers below record the per-goroutine held-set and
//     the observed acquisition-order graph, and panic with both stacks
//     on the first order inversion or same-class double acquire. The
//     default build compiles the wrappers down to plain sync types.
//
// This package holds only the runtime half. SetClass names a lock's class
// at construction time; locks that never get a class are ignored by the
// runtime lockdep (and flagged by the static pass, which requires every
// mutex field to carry an annotation).
package lockcheck
