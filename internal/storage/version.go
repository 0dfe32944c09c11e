// Package storage is the engine's row store: per table, a slot array
// indexed by RID holding each row's chain of immutable row versions, newest
// first. Writers prepend versions stamped with their transaction id, one
// writer per chain at a time: the lock manager serializes them per row (a
// point writer's X row lock, taken before it reads the row) or per table
// (X). Commit stamps the versions with a monotonically increasing commit
// timestamp inside the transaction manager's commit critical section.
// Readers resolve the version visible to their snapshot by walking the
// chain — no locks taken beyond the store's own short slot latch, so
// readers never appear in the lock manager's wait graph.
//
// Physical cleanup is deferred: DELETE pushes a tombstone version and
// leaves the chain and its index entries in place so older snapshots keep
// resolving them; Prune reclaims both once the version-garbage watermark
// (the oldest snapshot any live transaction holds) has passed the
// superseding commit. Writers of different rows of one table may run Prune
// at once; it is safe at chain granularity because it only cuts versions
// committed at or below the watermark. Another writer's uncommitted head
// sits above them, and a commit in progress stamps a timestamp above the
// published last commit, which is at or above the watermark.
//
// A row never moves: index entries carry its RID and are resolved through
// the chain slots. Entries become stale only when the row's key changes;
// stale entries are recorded as pending removals and reclaimed by Prune.
package storage

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// RID identifies a row of one table. The table's version store hands RIDs
// out in increasing order and never reuses one — not after an INSERT rolls
// back, nor after Prune or TRUNCATE drops the row — so RID order is
// insertion order.
type RID uint64

// BaseCommitTS stamps base versions installed outside any transaction
// (engine-internal direct inserts). It is visible to every snapshot:
// visibility requires a nonzero commit timestamp <= the snapshot's, and
// every snapshot timestamp is >= 0.
const BaseCommitTS = -1

// Snapshot is a point-in-time read view: the highest commit timestamp the
// reader observes plus its own transaction id (a transaction always sees
// its own uncommitted writes).
type Snapshot struct {
	TS   int64
	Self int64
}

// CurrentSnapshot is the read view of a writer: every committed version is
// inside the horizon, and on a chain the writer has locked — its row under
// an X row lock, or every row under the table's X lock — the only
// uncommitted versions are self's own (strict 2PL), so the visible version
// of that chain is its head. Current-mode reads need no visibility rule of
// their own. On a chain another writer holds, the view skips that writer's
// uncommitted head and resolves the newest committed version.
func CurrentSnapshot(self int64) Snapshot { return Snapshot{TS: math.MaxInt64, Self: self} }

// VersionStats aggregates MVCC counters, shared by every version store of
// one engine (the Versions_Pruned / Versions_Retained probes).
type VersionStats struct {
	// Pruned counts versions physically discarded by Prune.
	Pruned atomic.Int64
	// Retained counts versions currently held across all chains.
	Retained atomic.Int64
	// Scanned counts chains Prune examined: the work garbage collection
	// did, whether or not it found garbage.
	Scanned atomic.Int64
}

// Version is one immutable row version. rec and txnID are fixed at
// construction; commit is stamped exactly once at transaction commit.
type Version struct {
	rec    []byte // encoded row; nil marks a tombstone (deleted)
	txnID  int64
	commit atomic.Int64 // 0 while uncommitted
	// next points at the older version; Prune truncates it.
	//sqlcm:cow storage.version
	next atomic.Pointer[Version]
}

// Rec returns the encoded row (nil for a tombstone).
func (v *Version) Rec() []byte { return v.rec }

// Tombstone reports whether the version marks a deletion.
func (v *Version) Tombstone() bool { return v.rec == nil }

// CommitTS returns the commit timestamp (0 while uncommitted).
func (v *Version) CommitTS() int64 { return v.commit.Load() }

// SetCommit stamps the commit timestamp. Runs inside the transaction
// manager's commit critical section, before the timestamp is published to
// new snapshots.
func (v *Version) SetCommit(ts int64) { v.commit.Store(ts) }

// visibleTo resolves the newest version of the chain rooted at v that snap
// may observe, walking atomics only. depth counts versions examined (the
// Version_Chain_Length probe).
func visibleTo(v *Version, snap Snapshot) (vis *Version, depth int) {
	for ; v != nil; v = v.next.Load() {
		depth++
		ts := v.commit.Load()
		if v.txnID == snap.Self && ts == 0 {
			return v, depth
		}
		if ts != 0 && ts <= snap.TS {
			return v, depth
		}
	}
	return nil, depth
}

// Pending records one deferred index-entry removal: the entry (Index, Key,
// Rid) may be deleted once the version that superseded it is visible to
// every live and future snapshot.
type Pending struct {
	Index string
	Key   []byte
	Rid   RID
	// By is the version whose installation made the entry stale.
	By *Version
}

// chain tracks the versions of one row. All fields are guarded by the
// owning store's mutex except head, which readers load lock-free.
type chain struct {
	//sqlcm:cow storage.version
	head atomic.Pointer[Version]
	// pend holds the chain's deferred index-entry removals — at most one
	// per (index, key): a key leaving the row adds one, the key returning
	// cancels it.
	//sqlcm:guarded-by storage.version
	pend []Pending
	// dirty marks membership in the store's garbage set.
	//sqlcm:guarded-by storage.version
	dirty bool
}

// ChainRow is one row materialized from a chain scan.
type ChainRow struct {
	Rid RID
	// Rec is the visible version's encoded row.
	Rec []byte
	// Depth is the number of versions examined to resolve visibility.
	Depth int
}

// VersionStore holds the version chains of one table.
type VersionStore struct {
	stats *VersionStats
	// lastRID is the newest RID NewRID handed out.
	lastRID atomic.Uint64

	// mu protects the chain slots, every chain's mutable fields (pend,
	// dirty) and the garbage set with its counters. Chain heads and version
	// links are read through atomics so visibility walks escape the critical
	// section.
	//sqlcm:lock storage.version
	//sqlcm:guards chains, base, live, garbage, grown, residue, prunedAt
	mu sync.RWMutex
	// chains[i] is the chain of RID base+i, nil for a RID whose row is gone
	// or was never installed. Leading nil slots are trimmed (base moves up),
	// so a table that drops its oldest rows keeps no slot for them; interior
	// holes cost one pointer each. live counts the non-nil slots.
	chains []*chain
	base   RID
	live   int
	// garbage is the set of chains Prune can find work in. Invariant: every
	// chain with more than one version, a tombstone head or a pending entry
	// is in it — a chain outside it is one live version, which no watermark
	// makes garbage. Chains enter on Push, Tombstone, AddPending and
	// RestorePending; Prune drops the ones it leaves clean and the ones Pop
	// or Discard removed from the store since they entered.
	garbage []RID
	// grown counts the versions pushed since the last Prune; residue the
	// versions that pass examined and had to keep, prunedAt its watermark.
	// PruneDue weighs them.
	grown, residue int
	prunedAt       int64
}

// NewVersionStore returns an empty store reporting into stats.
func NewVersionStore(stats *VersionStats) *VersionStore {
	if stats == nil {
		stats = &VersionStats{}
	}
	return &VersionStore{stats: stats, base: 1}
}

// Stats returns the shared counters.
func (s *VersionStore) Stats() *VersionStats { return s.stats }

// NewRID hands out the RID for a row about to be inserted: one greater than
// any the store handed out before.
func (s *VersionStore) NewRID() RID { return RID(s.lastRID.Add(1)) }

// Install creates the chain for a freshly inserted row at a RID from
// NewRID. committed installs the version pre-stamped with BaseCommitTS
// (engine-internal inserts that must be visible to every snapshot);
// otherwise the caller stamps the returned version at commit.
func (s *VersionStore) Install(rid RID, rec []byte, txnID int64, committed bool) *Version {
	v := &Version{rec: rec, txnID: txnID}
	if committed {
		v.commit.Store(BaseCommitTS)
	}
	c := &chain{}
	c.head.Store(v)
	s.mu.Lock()
	s.setSlot(rid, c)
	s.mu.Unlock()
	s.stats.Retained.Add(1)
	return v
}

// slot returns the chain at rid, nil when there is none. The caller holds mu.
//
//sqlcm:lock-held storage.version
func (s *VersionStore) slot(rid RID) *chain {
	if rid < s.base || rid-s.base >= RID(len(s.chains)) {
		return nil
	}
	return s.chains[rid-s.base]
}

// setSlot installs c at rid, growing the slot array up to it. The caller
// holds mu; rid is at or above base (NewRID only counts up, and Reset moves
// base past every RID handed out).
//
//sqlcm:lock-held storage.version
func (s *VersionStore) setSlot(rid RID, c *chain) {
	i := int(rid - s.base)
	for len(s.chains) <= i {
		s.chains = append(s.chains, nil)
	}
	s.chains[i] = c
	s.live++
}

// drop empties the slot at rid and trims the leading empty slots. The
// caller holds mu and has checked that the slot is set.
//
//sqlcm:lock-held storage.version
func (s *VersionStore) drop(rid RID) {
	s.chains[rid-s.base] = nil
	s.live--
	for len(s.chains) > 0 && s.chains[0] == nil {
		s.chains = s.chains[1:]
		s.base++
	}
}

// Push prepends a new version carrying rec (UPDATE).
func (s *VersionStore) Push(rid RID, rec []byte, txnID int64) *Version {
	v := &Version{rec: rec, txnID: txnID}
	s.push(rid, v)
	return v
}

// Tombstone prepends a deletion marker (DELETE). The chain and the index
// entries stay in place until Prune reclaims them.
func (s *VersionStore) Tombstone(rid RID, txnID int64) *Version {
	v := &Version{txnID: txnID}
	s.push(rid, v)
	return v
}

func (s *VersionStore) push(rid RID, v *Version) {
	s.mu.Lock()
	c := s.slot(rid)
	if c == nil {
		// Defensive: a row the store has never seen (should not happen —
		// every insert installs a chain). Adopt it with v as the only
		// version.
		c = &chain{}
		s.setSlot(rid, c)
	} else {
		v.next.Store(c.head.Load())
	}
	c.head.Store(v)
	s.markGarbage(rid, c)
	s.grown++
	s.mu.Unlock()
	s.stats.Retained.Add(1)
}

// markGarbage enters the chain c at rid into the garbage set. The caller
// holds mu.
//
//sqlcm:lock-held storage.version
func (s *VersionStore) markGarbage(rid RID, c *chain) {
	if !c.dirty {
		c.dirty = true
		s.garbage = append(s.garbage, rid)
	}
}

// Pop removes the newest version (transaction rollback of one UPDATE or
// DELETE) and the deferred removals it registered. The chain must hold an
// older version underneath.
func (s *VersionStore) Pop(rid RID) {
	s.mu.Lock()
	if c := s.slot(rid); c != nil {
		if h := c.head.Load(); h != nil {
			c.pend = slices.DeleteFunc(c.pend, func(p Pending) bool { return p.By == h })
			if n := h.next.Load(); n != nil {
				c.head.Store(n)
			} else {
				s.drop(rid)
			}
			s.stats.Retained.Add(-1)
		}
	}
	s.mu.Unlock()
}

// Discard drops the whole chain at rid (INSERT rollback). The RID is not
// handed out again.
func (s *VersionStore) Discard(rid RID) {
	s.mu.Lock()
	if c := s.slot(rid); c != nil {
		s.drop(rid)
		s.stats.Retained.Add(-int64(chainLen(c.head.Load())))
	}
	s.mu.Unlock()
}

func chainLen(v *Version) int {
	n := 0
	for ; v != nil; v = v.next.Load() {
		n++
	}
	return n
}

// ReadAt resolves the row at rid (an index entry's RID) for snap. ok is
// false when the row is invisible to the snapshot or gone; Depth is set
// either way.
func (s *VersionStore) ReadAt(rid RID, snap Snapshot) (row ChainRow, ok bool) {
	s.mu.RLock()
	c := s.slot(rid)
	s.mu.RUnlock()
	row.Rid = rid
	if c == nil {
		return row, false
	}
	vis, depth := visibleTo(c.head.Load(), snap)
	row.Depth = depth
	if vis == nil || vis.Tombstone() {
		return row, false
	}
	row.Rec = vis.rec
	return row, true
}

// SnapScan materializes every row visible to snap in RID order, which is
// insertion order: the slot order. The row set is captured atomically with
// respect to chain installation and pruning.
func (s *VersionStore) SnapScan(snap Snapshot) []ChainRow {
	s.mu.RLock()
	out := make([]ChainRow, 0, s.live)
	for i, c := range s.chains {
		if c == nil {
			continue
		}
		vis, depth := visibleTo(c.head.Load(), snap)
		if vis == nil || vis.Tombstone() {
			continue
		}
		out = append(out, ChainRow{Rid: s.base + RID(i), Rec: vis.rec, Depth: depth})
	}
	s.mu.RUnlock()
	return out
}

// AddPending defers removal of the row's index entry (index, key) until by
// is visible to every snapshot.
func (s *VersionStore) AddPending(rid RID, index string, key []byte, by *Version) {
	s.mu.Lock()
	if c := s.slot(rid); c != nil {
		c.pend = append(c.pend, Pending{Index: index, Key: key, Rid: rid, By: by})
		s.markGarbage(rid, c)
	}
	s.mu.Unlock()
}

// TakePending removes and returns the deferred removal of (index, key), if
// one exists: the entry is being resurrected as the row's current key (or
// an update is being rolled back), so it must not be reclaimed. The
// returned Pending allows exact restoration.
func (s *VersionStore) TakePending(rid RID, index string, key []byte) (Pending, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.slot(rid)
	if c == nil {
		return Pending{}, false
	}
	for i, p := range c.pend {
		if p.Index == index && string(p.Key) == string(key) {
			c.pend = append(c.pend[:i], c.pend[i+1:]...)
			return p, true
		}
	}
	return Pending{}, false
}

// RestorePending re-registers a deferred removal taken by TakePending.
func (s *VersionStore) RestorePending(rid RID, p Pending) {
	s.mu.Lock()
	if c := s.slot(rid); c != nil {
		c.pend = append(c.pend, p)
		s.markGarbage(rid, c)
	}
	s.mu.Unlock()
}

// PruneBatch is the number of versions a table's writers push before one
// of them runs a pass: it amortizes a pass's fixed cost and bounds the
// garbage a quiescent table is left holding.
const PruneBatch = 256

// PruneDue is the write-path trigger: a writer holding its write locks on
// the table asks it after its rows are written and, when due, runs the
// pass at the returned watermark. A pass is due once PruneBatch versions
// were pushed since the last one, provided it can find new garbage: the
// watermark moved past the last pass's, or the pushes since outnumber the
// versions that pass had to keep. The second arm keeps a pinned watermark (a
// long-open snapshot) from turning every batch into a rescan of the same
// un-prunable set: the passes then space out geometrically. watermark is
// called without the store's latch held.
func (s *VersionStore) PruneDue(watermark func() int64) (wm int64, due bool) {
	s.mu.RLock()
	grown, residue, prunedAt := s.grown, s.residue, s.prunedAt
	s.mu.RUnlock()
	if grown < PruneBatch {
		return 0, false
	}
	wm = watermark()
	return wm, wm > prunedAt || grown >= residue
}

// Prune discards versions no snapshot at or after watermark can observe:
// versions older than each chain's newest version with commit <=
// watermark, deferred index entries whose superseding commit passed
// the watermark, and whole chains whose visible state at the watermark is
// a tombstone. It walks the garbage set only, so a pass costs what was
// written since the chains it visits were last clean, not what is stored.
//
// It returns the index entries now safe to delete; the caller (holding a
// write lock on the table) deletes them outside the store's mutex, keeping
// storage.version a leaf class. Concurrent passes serialize on the store's
// mutex, so each entry is returned to exactly one of them.
func (s *VersionStore) Prune(watermark int64) []Pending {
	var entries []Pending
	var pruned int64
	s.mu.Lock()
	scanned := len(s.garbage)
	kept, residue := s.garbage[:0], 0
	for _, rid := range s.garbage {
		c := s.slot(rid)
		if c == nil {
			continue // rolled back (Pop, Discard) since it entered the set
		}

		// Sweep deferred index-entry removals.
		pend := c.pend[:0]
		for _, p := range c.pend {
			if ts := p.By.commit.Load(); ts != 0 && ts <= watermark {
				entries = append(entries, p)
			} else {
				pend = append(pend, p)
			}
		}
		c.pend = pend

		head := c.head.Load()
		// Whole-row death: the version visible at the watermark is a
		// tombstone, so no live or future snapshot sees any data.
		if ts := head.commit.Load(); head.Tombstone() && ts != 0 && ts <= watermark {
			entries = append(entries, c.pend...)
			c.pend = nil
			pruned += int64(chainLen(head))
			s.drop(rid)
			continue
		}
		// Interior truncation below the newest watermark-visible version.
		n := 0
		for v := head; v != nil; v = v.next.Load() {
			n++
			if ts := v.commit.Load(); ts != 0 && ts <= watermark {
				if tail := v.next.Load(); tail != nil {
					pruned += int64(chainLen(tail))
					v.next.Store(nil)
				}
				break
			}
		}
		if n == 1 && !head.Tombstone() && len(c.pend) == 0 {
			c.dirty = false // one live version: nothing for any later pass
			continue
		}
		residue += n
		kept = append(kept, rid)
	}
	s.garbage = kept
	s.grown, s.residue, s.prunedAt = 0, residue, watermark
	s.mu.Unlock()
	s.stats.Scanned.Add(int64(scanned))
	if pruned > 0 {
		s.stats.Pruned.Add(pruned)
		s.stats.Retained.Add(-pruned)
	}
	return entries
}

// Reset drops every chain (TRUNCATE). RIDs keep counting from where they
// were, and the slot array starts past the last one handed out.
func (s *VersionStore) Reset() {
	s.mu.Lock()
	var n int64
	for _, c := range s.chains {
		if c != nil {
			n += int64(chainLen(c.head.Load()))
		}
	}
	s.chains, s.base, s.live = nil, RID(s.lastRID.Load())+1, 0
	s.garbage, s.grown, s.residue = nil, 0, 0
	s.mu.Unlock()
	s.stats.Retained.Add(-n)
}

// Chains returns the number of live chains (diagnostics and tests).
func (s *VersionStore) Chains() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.live
}
