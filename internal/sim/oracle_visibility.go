package sim

import (
	"fmt"
	"math/rand"

	"sqlcm/internal/storage"
)

// Visibility oracle: a naive full-history recompute of MVCC snapshot
// visibility, differentially compared against the real version store.
//
// The oracle keeps the complete, never-pruned write history of every row
// and answers "what does snapshot S see of row R" by linear search with the
// visibility rule stated in one place. The real side (storage.VersionStore)
// maintains pruned chains, atomically published heads and a
// commit-timestamp oracle; RunMVCCDiff drives both through the same
// randomized schedule of transactions — begin, write, commit, rollback,
// prune at the live watermark — and requires bit-identical visibility after
// every step, for every live snapshot and for a fresh snapshot at the
// newest commit, with SnapScan returning the visible rows in install order
// and no RID handed out twice. It also pins the equivalence the executor's
// single read path rests on: under a row's write lock,
// storage.CurrentSnapshot resolves to the newest write at depth 1, so
// writers need no head-only reader beside ReadAt/SnapScan.

// visEntry is one write in a row's full history.
type visEntry struct {
	txnID    int64
	commitTS int64 // 0 while uncommitted
	rec      string
	tomb     bool
}

// visRow is the complete history of one logical row.
type visRow struct {
	hist []visEntry
}

// visible is the oracle's single statement of the visibility rule: the
// newest entry that either belongs to the reading transaction and is
// uncommitted, or committed at or before the snapshot horizon. The bool is
// false when nothing is visible or the visible entry is a tombstone.
func (r *visRow) visible(snap storage.Snapshot) (string, bool) {
	for i := len(r.hist) - 1; i >= 0; i-- {
		e := r.hist[i]
		if (e.txnID == snap.Self && e.commitTS == 0) ||
			(e.commitTS != 0 && (e.commitTS == storage.BaseCommitTS || e.commitTS <= snap.TS)) {
			if e.tomb {
				return "", false
			}
			return e.rec, true
		}
	}
	return "", false
}

// visTxn is one simulated transaction.
type visTxn struct {
	id     int64
	snapTS int64
	// undo records the rollback actions (reverse order), mirroring the
	// engine's logical undo log.
	undo []func()
	// stamps are the versions (real side) and entries (oracle side) to
	// stamp at commit.
	stamps []func(ts int64)
	// locked lists the rows this transaction wrote (released at end).
	locked []int
}

// MVCCDiffConfig sizes one differential visibility run.
type MVCCDiffConfig struct {
	Seed  int64
	Steps int
	// Rows bounds the logical-row population (default 16).
	Rows int
	// MaxActive bounds concurrent transactions (default 5).
	MaxActive int
}

// RunMVCCDiff drives the real version store and the visibility oracle
// through one randomized schedule and returns an error describing the first
// divergence (nil for a clean run).
func RunMVCCDiff(cfg MVCCDiffConfig) error {
	if cfg.Rows == 0 {
		cfg.Rows = 16
	}
	if cfg.MaxActive == 0 {
		cfg.MaxActive = 5
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	store := storage.NewVersionStore(nil)

	rows := make([]*visRow, cfg.Rows)
	for i := range rows {
		rows[i] = &visRow{}
	}
	rids := make([]storage.RID, cfg.Rows) // each row's RID while it has a chain
	var installed []storage.RID           // every RID installed, in install order
	chainLive := make([]bool, cfg.Rows)   // row has a chain on the real side
	lockOwner := make([]int64, cfg.Rows)

	var lastCommit, nextTxn int64
	active := map[int64]*visTxn{}

	check := func(step int) error {
		snaps := []storage.Snapshot{{TS: lastCommit}}
		for _, t := range active {
			snaps = append(snaps, storage.Snapshot{TS: t.snapTS, Self: t.id})
		}
		for _, snap := range snaps {
			visible := make(map[storage.RID]bool)
			for i, r := range rows {
				wantRec, wantOK := r.visible(snap)
				var gotRec []byte
				var gotOK bool
				if chainLive[i] {
					var cr storage.ChainRow
					cr, gotOK = store.ReadAt(rids[i], snap)
					gotRec = cr.Rec
				}
				if gotOK != wantOK {
					return fmt.Errorf("seed %d step %d snap{ts=%d self=%d} row %d: store visible=%v oracle=%v",
						cfg.Seed, step, snap.TS, snap.Self, i, gotOK, wantOK)
				}
				if gotOK && string(gotRec) != wantRec {
					return fmt.Errorf("seed %d step %d snap{ts=%d self=%d} row %d: store %q oracle %q",
						cfg.Seed, step, snap.TS, snap.Self, i, gotRec, wantRec)
				}
				if wantOK {
					visible[rids[i]] = true
				}
			}
			// SnapScan returns exactly the visible rows, in install order.
			var want, got []storage.RID
			for _, rid := range installed {
				if visible[rid] {
					want = append(want, rid)
				}
			}
			for _, cr := range store.SnapScan(snap) {
				got = append(got, cr.Rid)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				return fmt.Errorf("seed %d step %d snap{ts=%d self=%d}: SnapScan %v, oracle in install order %v",
					cfg.Seed, step, snap.TS, snap.Self, got, want)
			}
		}
		for i, r := range rows {
			if !chainLive[i] || len(r.hist) == 0 {
				continue
			}
			// lockOwner is 0 for an unlocked row, which then has no
			// uncommitted entry: any reader's current view is the head.
			head := r.hist[len(r.hist)-1]
			cr, ok := store.ReadAt(rids[i], storage.CurrentSnapshot(lockOwner[i]))
			if ok == head.tomb || (ok && string(cr.Rec) != head.rec) || cr.Depth != 1 {
				return fmt.Errorf("seed %d step %d row %d: current-mode read (%q, live=%v, depth %d) is not the newest write (%q, tomb=%v)",
					cfg.Seed, step, i, cr.Rec, ok, cr.Depth, head.rec, head.tomb)
			}
		}
		return nil
	}

	finishLocks := func(t *visTxn) {
		for _, i := range t.locked {
			if lockOwner[i] == t.id {
				lockOwner[i] = 0
			}
		}
	}

	for step := 0; step < cfg.Steps; step++ {
		switch op := rng.Intn(10); {
		case op < 3 && len(active) < cfg.MaxActive:
			// Begin: register before reading the horizon, like txn.Manager.
			nextTxn++
			active[nextTxn] = &visTxn{id: nextTxn, snapTS: lastCommit}

		case op < 7 && len(active) > 0:
			// A write by a random active transaction on a random row it can
			// lock (the engine's X lock: one uncommitted writer per row).
			t := pickTxn(rng, active)
			i := rng.Intn(cfg.Rows)
			if lockOwner[i] != 0 && lockOwner[i] != t.id {
				continue // lock conflict: the generator just skips
			}
			r := rows[i]
			// Once t holds the row lock every uncommitted entry in the
			// history is t's own, so a current-mode self read gives the
			// row's liveness as the writer sees it.
			_, liveForT := r.visible(storage.CurrentSnapshot(t.id))
			lockOwner[i] = t.id
			t.locked = append(t.locked, i)
			rec := fmt.Sprintf("row%d@txn%d.%d", i, t.id, step)
			switch {
			case !liveForT && !chainLive[i]:
				// Insert of a row with no surviving chain, under a RID never
				// handed out before.
				a := store.NewRID()
				if n := len(installed); n > 0 && a <= installed[n-1] {
					return fmt.Errorf("seed %d step %d: NewRID handed out %v after %v", cfg.Seed, step, a, installed[n-1])
				}
				installed = append(installed, a)
				rids[i] = a
				v := store.Install(a, []byte(rec), t.id, false)
				chainLive[i] = true
				r.hist = append(r.hist, visEntry{txnID: t.id, rec: rec})
				ei := len(r.hist) - 1
				t.stamps = append(t.stamps, func(ts int64) { v.SetCommit(ts); r.hist[ei].commitTS = ts })
				t.undo = append(t.undo, func() {
					store.Discard(a)
					chainLive[i] = false
					r.hist = r.hist[:len(r.hist)-1]
				})
			case !liveForT:
				// Re-insert after a delete whose chain still holds history:
				// push the new image onto the surviving chain so every old
				// snapshot keeps resolving through the one chain.
				v := store.Push(rids[i], []byte(rec), t.id)
				r.hist = append(r.hist, visEntry{txnID: t.id, rec: rec})
				ei := len(r.hist) - 1
				t.stamps = append(t.stamps, func(ts int64) { v.SetCommit(ts); r.hist[ei].commitTS = ts })
				a := rids[i]
				t.undo = append(t.undo, func() {
					store.Pop(a)
					r.hist = r.hist[:len(r.hist)-1]
				})
			case rng.Intn(4) == 0:
				// Delete.
				v := store.Tombstone(rids[i], t.id)
				r.hist = append(r.hist, visEntry{txnID: t.id, tomb: true})
				ei := len(r.hist) - 1
				t.stamps = append(t.stamps, func(ts int64) { v.SetCommit(ts); r.hist[ei].commitTS = ts })
				a := rids[i]
				t.undo = append(t.undo, func() {
					store.Pop(a)
					r.hist = r.hist[:len(r.hist)-1]
				})
			default:
				// Update.
				v := store.Push(rids[i], []byte(rec), t.id)
				r.hist = append(r.hist, visEntry{txnID: t.id, rec: rec})
				ei := len(r.hist) - 1
				t.stamps = append(t.stamps, func(ts int64) { v.SetCommit(ts); r.hist[ei].commitTS = ts })
				a := rids[i]
				t.undo = append(t.undo, func() {
					store.Pop(a)
					r.hist = r.hist[:len(r.hist)-1]
				})
			}

		case op < 8 && len(active) > 0:
			// Commit: allocate the next timestamp, stamp, publish — the
			// transaction manager's commit critical section.
			t := pickTxn(rng, active)
			if len(t.stamps) > 0 {
				ts := lastCommit + 1
				for _, fn := range t.stamps {
					fn(ts)
				}
				lastCommit = ts
			}
			finishLocks(t)
			delete(active, t.id)

		case op < 9 && len(active) > 0:
			// Rollback: undo in reverse order.
			t := pickTxn(rng, active)
			for i := len(t.undo) - 1; i >= 0; i-- {
				t.undo[i]()
			}
			finishLocks(t)
			delete(active, t.id)

		default:
			// Prune at the live watermark (oldest active snapshot, else the
			// newest commit). The oracle never prunes — that is the point.
			wm := lastCommit
			for _, t := range active {
				if t.snapTS < wm {
					wm = t.snapTS
				}
			}
			store.Prune(wm)
			// Chains fully reclaimed (deleted before the watermark) are
			// gone on the real side; mark them so check treats ReadAt
			// misses as invisible rather than errors.
			for i := range rows {
				if !chainLive[i] {
					continue
				}
				if cr, _ := store.ReadAt(rids[i], storage.Snapshot{TS: 1 << 62}); cr.Depth == 0 {
					chainLive[i] = false
				}
			}
		}
		if err := check(step); err != nil {
			return err
		}
	}
	return check(cfg.Steps)
}

// pickTxn selects a deterministic random active transaction (map iteration
// order is randomized by the runtime, so sort by id).
func pickTxn(rng *rand.Rand, active map[int64]*visTxn) *visTxn {
	ids := make([]int64, 0, len(active))
	for id := range active {
		ids = append(ids, id)
	}
	sortInt64(ids)
	return active[ids[rng.Intn(len(ids))]]
}

func sortInt64(xs []int64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
