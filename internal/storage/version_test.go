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
			model := make(map[int][]modelVersion) // keyed by logical row
			rids := make(map[int]RID)             // logical row → its chain's RID
			var installed []RID                   // every RID installed, in install order
			install := func(row int, rec []byte, ts int64) {
				rid := s.NewRID()
				if n := len(installed); n > 0 && rid <= installed[n-1] {
					t.Fatalf("NewRID handed out %v after %v", rid, installed[n-1])
				}
				installed = append(installed, rid)
				s.Install(rid, rec, ts, false).SetCommit(ts)
				rids[row] = rid
			}

			live := func(row int) bool {
				h := model[row]
				return len(h) > 0 && h[len(h)-1].rec != nil
			}

			var ts, maxWM int64
			for step := 0; step < steps; step++ {
				row := rng.Intn(rows)*2 + rng.Intn(2)
				ts++
				rec := []byte(fmt.Sprintf("r%v@%d", row, ts))
				switch {
				case len(model[row]) == 0:
					// First write: install the chain.
					install(row, rec, ts)
					model[row] = append(model[row], modelVersion{commitTS: ts, rec: rec})
				case !live(row):
					// Deleted: if the tombstoned chain was fully pruned the
					// row is re-installed under a fresh RID; otherwise push
					// onto the surviving chain so old snapshots keep
					// resolving the history.
					if cr, _ := s.ReadAt(rids[row], Snapshot{TS: 1 << 60}); cr.Depth == 0 {
						install(row, rec, ts)
					} else {
						v := s.Push(rids[row], rec, ts)
						v.SetCommit(ts)
					}
					model[row] = append(model[row], modelVersion{commitTS: ts, rec: rec})
				case rng.Intn(4) == 0:
					// Delete.
					v := s.Tombstone(rids[row], ts)
					v.SetCommit(ts)
					model[row] = append(model[row], modelVersion{commitTS: ts})
				default:
					// Update.
					v := s.Push(rids[row], rec, ts)
					v.SetCommit(ts)
					model[row] = append(model[row], modelVersion{commitTS: ts, rec: rec})
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
						visible := make(map[RID]bool)
						for row, hist := range model {
							wantRec, wantOK := modelVisible(hist, snapTS)
							cr, gotOK := s.ReadAt(rids[row], snap)
							gotRec := cr.Rec
							if gotOK != wantOK {
								t.Fatalf("step %d wm %d snap %d row %v: visible=%v want %v",
									step, wm, snapTS, row, gotOK, wantOK)
							}
							if gotOK && string(gotRec) != string(wantRec) {
								t.Fatalf("step %d wm %d snap %d row %v: rec %q want %q",
									step, wm, snapTS, row, gotRec, wantRec)
							}
							if wantOK {
								visible[rids[row]] = true
							}
						}
						// SnapScan must return exactly the visible rows, in
						// install order.
						var want []RID
						for _, rid := range installed {
							if visible[rid] {
								want = append(want, rid)
							}
						}
						var got []RID
						for _, cr := range s.SnapScan(snap) {
							got = append(got, cr.Rid)
						}
						if fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("wm %d snap %d: SnapScan %v, model in install order %v", wm, snapTS, got, want)
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
	rid := s.NewRID()
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
	rid := s.NewRID()
	v0 := s.Install(rid, []byte("a"), 1, false)
	v0.SetCommit(1)
	v1 := s.Push(rid, []byte("b"), 2)
	s.AddPending(rid, "ix", []byte("key-a"), v1)

	// Uncommitted superseder: never reclaimed.
	if w := s.Prune(10); len(w) != 0 {
		t.Fatalf("pending reclaimed while superseder uncommitted: %v", w)
	}
	v1.SetCommit(4)
	// Watermark behind the superseding commit: entry still needed.
	if w := s.Prune(3); len(w) != 0 {
		t.Fatalf("pending reclaimed before watermark passed: %v", w)
	}
	// Watermark past the commit: reclaimed exactly once.
	w := s.Prune(4)
	if len(w) != 1 || w[0].Index != "ix" || string(w[0].Key) != "key-a" || w[0].Rid != rid {
		t.Fatalf("pending not reclaimed: %+v", w)
	}
	if w := s.Prune(9); len(w) != 0 {
		t.Fatalf("pending reclaimed twice: %v", w)
	}
}

// TestRIDOrdering pins the RID contract: RIDs ascend in install order and
// are never handed out again — not after an INSERT rolls back, a pass drops
// a deleted row or TRUNCATE empties the table — so a scan returns rows in
// the order they were inserted, whatever was deleted in between.
func TestRIDOrdering(t *testing.T) {
	s := NewVersionStore(nil)
	var rids []RID
	insert := func(rec string) RID {
		rid := s.NewRID()
		for _, old := range rids {
			if rid <= old {
				t.Fatalf("NewRID handed out %v after %v", rid, old)
			}
		}
		rids = append(rids, rid)
		s.Install(rid, []byte(rec), 1, false).SetCommit(1)
		return rid
	}
	scan := func() string {
		var out []string
		for _, cr := range s.SnapScan(Snapshot{TS: 100}) {
			out = append(out, string(cr.Rec))
		}
		return fmt.Sprint(out)
	}

	first := insert("10")
	insert("20")
	s.Discard(insert("rolled back")) // INSERT rollback
	s.Tombstone(first, 2).SetCommit(2)
	s.Prune(2) // the deleted row's chain is dropped
	insert("30")
	if got := scan(); got != "[20 30]" {
		t.Fatalf("scan after delete, prune and reinsert: %s", got)
	}
	s.Reset() // TRUNCATE
	insert("40")
	if got := scan(); got != "[40]" {
		t.Fatalf("scan after truncate: %s", got)
	}
}
