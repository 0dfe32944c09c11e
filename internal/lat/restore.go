package lat

import (
	"fmt"

	"sqlcm/internal/sqltypes"
)

// Restore rebuilds table rows from persisted output values (§4.3: LATs
// are persistable to a table and reloadable from it; LoadLAT). It
// reconstructs the accumulator of every aggregate whose state is
// determined by its output — COUNT, SUM, MIN, MAX, FIRST, LAST resume
// exactly; AVG resumes with the correct current value but unit weight for
// future observations; STDEV and aging aggregates resume as a single
// observation (their accumulators are not recoverable from one output
// value). Restoring into a non-empty group overwrites that group's
// aggregate state, so of several snapshots of one group the last wins.
func (t *Table) Restore(rows [][]sqltypes.Value) error {
	now := t.now(&Instant{})
	ng := len(t.spec.GroupBy)
	want := ng + len(t.spec.Aggs)
	for _, vals := range rows {
		if len(vals) != want {
			return fmt.Errorf("lat %s: restore row has %d values, want %d", t.spec.Name, len(vals), want)
		}
		key := sqltypes.EncodeKey(vals[:ng]...)

		t.mu.Lock()
		r := t.groupLocked(key, vals[:ng])
		for i := range t.spec.Aggs {
			r.aggs[i] = aggState{}
			r.aggs[i].restoreFrom(&t.spec, &t.spec.Aggs[i], vals[ng+i], now)
		}
		evicted := t.updatedLocked(r, r.memSize()-r.mem, now)
		t.mu.Unlock()
		t.deliverEvictions(evicted)
	}
	return nil
}
