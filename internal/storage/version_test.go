package storage

import (
	"fmt"
	"math/rand"
	"testing"
)

// modelVersion is one entry of the naive full-history model: the complete
// write history of every row, never pruned. The model answers visibility
// queries by linear search, independently of the chain implementation.
type modelVersion struct {
	commitTS int64
	rec      []byte // nil = tombstone
}

// modelVisible resolves the newest version committed at or before snapTS.
// The second result is false when the row is invisible (never committed
// before snapTS, or deleted).
func modelVisible(hist []modelVersion, snapTS int64) ([]byte, bool) {
	for i := len(hist) - 1; i >= 0; i-- {
		ts := hist[i].commitTS
		if ts != 0 && (ts == BaseCommitTS || ts <= snapTS) {
			if hist[i].rec == nil {
				return nil, false
			}
			return hist[i].rec, true
		}
	}
	return nil, false
}

// TestPruneNeverStealsVisibleVersions is the pruning-safety property test:
// after pruning at any watermark, every snapshot at or after the watermark
// still resolves exactly the rows (and row images) a naive full-history
// recompute produces. Watermarks only move forward, as in the engine
// (the oldest active snapshot is monotone once transactions finish).
func TestPruneNeverStealsVisibleVersions(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			stats := &VersionStats{}
			s := NewVersionStore(stats)

			const rows = 12
			const steps = 160
			model := make(map[RID][]modelVersion) // keyed by original RID
			alias := make(map[RID]RID)            // original → current RID
			nextPage := PageID(100)

			live := func(rid RID) bool {
				h := model[rid]
				return len(h) > 0 && h[len(h)-1].rec != nil
			}

			var ts, maxWM int64
			for step := 0; step < steps; step++ {
				rid := RID{Page: PageID(rng.Intn(rows)), Slot: Slot(rng.Intn(2))}
				ts++
				rec := []byte(fmt.Sprintf("r%v@%d", rid, ts))
				switch {
				case len(model[rid]) == 0:
					// First write: install the chain.
					v := s.Install(rid, rec, ts, false)
					v.SetCommit(ts)
					model[rid] = append(model[rid], modelVersion{commitTS: ts, rec: rec})
					alias[rid] = rid
				case !live(rid):
					// Deleted: if the tombstoned chain was fully pruned the
					// row is re-installed; otherwise push onto the surviving
					// chain so old snapshots keep resolving the history.
					if cr, _ := s.ReadAt(alias[rid], Snapshot{TS: 1 << 60}); cr.Depth == 0 {
						v := s.Install(rid, rec, ts, false)
						v.SetCommit(ts)
						alias[rid] = rid
					} else {
						v := s.Push(alias[rid], rec, ts)
						v.SetCommit(ts)
					}
					model[rid] = append(model[rid], modelVersion{commitTS: ts, rec: rec})
				case rng.Intn(4) == 0:
					// Delete.
					v := s.Tombstone(alias[rid], ts)
					v.SetCommit(ts)
					model[rid] = append(model[rid], modelVersion{commitTS: ts})
				default:
					// Update; occasionally the heap "relocates" the row.
					v := s.Push(alias[rid], rec, ts)
					v.SetCommit(ts)
					model[rid] = append(model[rid], modelVersion{commitTS: ts, rec: rec})
					if rng.Intn(8) == 0 {
						newRid := RID{Page: nextPage, Slot: 0}
						nextPage++
						s.Relocate(alias[rid], newRid)
						alias[rid] = newRid
					}
				}

				// Advance the watermark at random points and verify every
				// surviving snapshot against the model.
				if rng.Intn(10) == 0 {
					// The watermark is the oldest active snapshot — it only
					// moves forward as transactions finish.
					wm := ts - int64(rng.Intn(6))
					if wm < maxWM {
						wm = maxWM
					}
					maxWM = wm
					s.Prune(wm)
					for snapTS := wm; snapTS <= ts; snapTS++ {
						snap := Snapshot{TS: snapTS}
						for rid, hist := range model {
							wantRec, wantOK := modelVisible(hist, snapTS)
							cr, gotOK := s.ReadAt(alias[rid], snap)
							gotRec := cr.Rec
							if gotOK != wantOK {
								t.Fatalf("step %d wm %d snap %d row %v: visible=%v want %v",
									step, wm, snapTS, rid, gotOK, wantOK)
							}
							if gotOK && string(gotRec) != string(wantRec) {
								t.Fatalf("step %d wm %d snap %d row %v: rec %q want %q",
									step, wm, snapTS, rid, gotRec, wantRec)
							}
						}
						// SnapScan must return exactly the visible rows.
						visible := 0
						for _, hist := range model {
							if _, ok := modelVisible(hist, snapTS); ok {
								visible++
							}
						}
						if got := len(s.SnapScan(snap)); got != visible {
							t.Fatalf("wm %d snap %d: SnapScan %d rows, model %d", wm, snapTS, got, visible)
						}
					}
				}
			}

			// Full prune at the newest commit: every chain collapses to its
			// current version (or disappears), and the retained counter must
			// agree with the number of live rows.
			s.Prune(ts)
			liveRows := int64(0)
			for _, hist := range model {
				if _, ok := modelVisible(hist, ts); ok {
					liveRows++
				}
			}
			if got := stats.Retained.Load(); got != liveRows {
				t.Fatalf("after full prune: retained %d, live rows %d", got, liveRows)
			}
			if got := int64(s.Chains()); got != liveRows {
				t.Fatalf("after full prune: chains %d, live rows %d", got, liveRows)
			}
		})
	}
}

// TestUncommittedVisibleOnlyToSelf pins the self-visibility rule: an
// uncommitted version is visible to its own transaction and to nobody else;
// after commit it is visible exactly to snapshots at or past the stamp.
func TestUncommittedVisibleOnlyToSelf(t *testing.T) {
	s := NewVersionStore(nil)
	rid := RID{Page: 1, Slot: 0}
	base := []byte("base")
	v0 := s.Install(rid, base, 7, false)
	v0.SetCommit(5)

	v1 := s.Push(rid, []byte("mine"), 9)
	if cr, ok := s.ReadAt(rid, Snapshot{TS: 6, Self: 9}); !ok || string(cr.Rec) != "mine" {
		t.Fatalf("writer does not see own uncommitted write: %q %v", cr.Rec, ok)
	}
	if cr, ok := s.ReadAt(rid, Snapshot{TS: 6, Self: 3}); !ok || string(cr.Rec) != "base" {
		t.Fatalf("other txn sees wrong version: %q %v", cr.Rec, ok)
	}
	v1.SetCommit(8)
	if cr, ok := s.ReadAt(rid, Snapshot{TS: 6, Self: 3}); !ok || string(cr.Rec) != "base" {
		t.Fatalf("old snapshot must keep base after commit: %q %v", cr.Rec, ok)
	}
	if cr, ok := s.ReadAt(rid, Snapshot{TS: 8, Self: 3}); !ok || string(cr.Rec) != "mine" {
		t.Fatalf("new snapshot must see committed version: %q %v", cr.Rec, ok)
	}
}

// TestPendingLifecycle pins the deferred index-entry contract: a pending
// removal survives Prune while any snapshot may still need the entry and is
// emitted exactly once after its superseding commit passes the watermark.
func TestPendingLifecycle(t *testing.T) {
	s := NewVersionStore(nil)
	rid := RID{Page: 2, Slot: 1}
	v0 := s.Install(rid, []byte("a"), 1, false)
	v0.SetCommit(1)
	v1 := s.Push(rid, []byte("b"), 2)
	s.AddPending(rid, "ix", []byte("key-a"), rid, v1)

	// Uncommitted superseder: never reclaimed.
	if w := s.Prune(10); len(w.Entries) != 0 {
		t.Fatalf("pending reclaimed while superseder uncommitted: %v", w.Entries)
	}
	v1.SetCommit(4)
	// Watermark behind the superseding commit: entry still needed.
	if w := s.Prune(3); len(w.Entries) != 0 {
		t.Fatalf("pending reclaimed before watermark passed: %v", w.Entries)
	}
	// Watermark past the commit: reclaimed exactly once.
	w := s.Prune(4)
	if len(w.Entries) != 1 || w.Entries[0].Index != "ix" || string(w.Entries[0].Key) != "key-a" {
		t.Fatalf("pending not reclaimed: %+v", w)
	}
	if w := s.Prune(9); len(w.Entries) != 0 {
		t.Fatalf("pending reclaimed twice: %v", w.Entries)
	}
}
