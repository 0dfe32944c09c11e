// Package storage is the engine's row store: per table, a slot array
// indexed by RID holding the index of each row's newest version record,
// and a chain of immutable versions behind it, newest first. Writers
// prepend versions stamped with their transaction id, one writer per chain
// at a time: the lock manager serializes them per row (a point writer's X
// row lock, taken before it reads the row) or per table (X). Commit stamps
// the versions with a monotonically increasing commit timestamp inside the
// transaction manager's commit critical section. Readers resolve the
// version visible to their snapshot by walking the chain under the store's
// own short read latch — no lock-manager lock, so readers never appear in
// the lock manager's wait graph.
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
// the slots. Entries become stale only when the row's key changes; stale
// entries are recorded as pending removals and reclaimed by Prune.
//
// Nothing of a row is a Go object. A version is a fixed 32-byte record in
// a chunk of records, its bytes sit in a chunk of the table's byte arena,
// and the slot holds a 4-byte record index; chunks hold no pointer, so the
// garbage collector neither marks nor scans anything per row. The store
// reuses what it unlinks itself, under one rule: a record and its bytes
// cut from a chain (Prune, Pop, Discard) wait in a quarantine, tagged with
// the transaction manager's last commit timestamp read when they were
// cut, and are reused only after a pass has run at a watermark above that
// tag. Every reader that could still hold the record or a byte slice from
// a read is inside a transaction that registered before it read the store
// (txn.Manager.Begin registers before it takes its snapshot), so its
// snapshot is at or below the tag, and the watermark cannot pass the tag
// until it finishes. Hence a ChainRow.Rec and a Ref stay valid until the
// transaction that obtained them ends. A freed range takes the next row of
// its granule count. Once the free ranges outweigh the bytes rows hold, a
// compaction copies the rows out of the chunks less than half full and
// gives those chunks to the collector, as Reset gives it all of them; a
// reader still holding bytes in such a chunk keeps it alive.
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

// Chunk geometry. A record chunk holds 512 records (16 KiB); a byte chunk
// is 16 KiB, carved into ranges of whole 8-byte granules, except that a
// row longer than bigRow gets a chunk of exactly its length.
const (
	recShift  = 9
	recMask   = 1<<recShift - 1
	byteChunk = 16 << 10
	bigRow    = byteChunk / 4
	granule   = 8
	// tombstone is a record's length when it marks a deletion.
	tombstone = math.MaxUint32
	// dirty, in a slot, marks the row's membership in the garbage set; the
	// other 31 bits are its head record's index (0: no row).
	dirty = 1 << 31
	// noChunk is cur before the store carves its first small-row chunk.
	noChunk = math.MaxUint32
	// moving, in a chunk's fill, marks a small-row chunk being emptied.
	moving = 1 << 31
	// compactSlack is the free bytes, in chunks, past the bytes rows hold
	// that never start a compaction.
	compactSlack = 2
)

// record is one immutable row version. Index 0 is never handed out, so a
// zero next ends the chain. txn and n are set when the record is taken and
// do not change until it is reused; commit is stamped exactly once at
// transaction commit, outside the store's latch; next, the older version's
// index, is cut by Prune; at moves when a compaction copies the bytes.
// Everything but commit is read and written under the latch.
type record struct {
	commit atomic.Int64 // 0 while uncommitted
	txn    int64
	next   uint32
	// n is the length of the row's bytes, or tombstone.
	n uint32
	// at is where the bytes are: byte chunk<<32 | offset.
	at uint64
}

type recChunk [1 << recShift]record

// Ref is a handle on one version a writer installed: its transaction
// stamps it at commit, and a deferred index removal names it. A Ref
// obtained inside a registered transaction stays valid until that
// transaction ends.
type Ref struct{ r *record }

// SetCommit stamps the commit timestamp. Runs inside the transaction
// manager's commit critical section, before the timestamp is published to
// new snapshots.
func (v Ref) SetCommit(ts int64) { v.r.commit.Store(ts) }

// CommitTS returns the commit timestamp (0 while uncommitted).
func (v Ref) CommitTS() int64 { return v.r.commit.Load() }

// arena is the store's chunk directories. Record chunks never move; a
// row's bytes move when a compaction empties their chunk, so a reader
// resolves them under the store's read latch.
type arena struct {
	recs  []*recChunk
	bytes [][]byte
}

func (a *arena) rec(i uint32) *record { return &a.recs[i>>recShift][i&recMask] }

// data returns r's bytes, nil for a tombstone. The slice is capped at its
// length, so an append to it cannot run into the next row.
func (a *arena) data(r *record) []byte {
	switch r.n {
	case tombstone:
		return nil
	case 0:
		return []byte{}
	}
	p := r.at
	off := uint32(p)
	return a.bytes[p>>32][off : off+r.n : off+r.n]
}

// visibleTo resolves the newest version of the chain from record i that
// snap may observe. The caller holds the store's latch. depth counts
// versions examined (the Version_Chain_Length probe).
func (a *arena) visibleTo(i uint32, snap Snapshot) (vis *record, depth int) {
	for i != 0 {
		r := a.rec(i)
		depth++
		ts := r.commit.Load()
		if ts == 0 && r.txn == snap.Self {
			return r, depth
		}
		if ts != 0 && ts <= snap.TS {
			return r, depth
		}
		i = r.next
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
	By Ref
}

// ChainRow is one row materialized from a chain scan.
type ChainRow struct {
	Rid RID
	// Rec is the visible version's encoded row: a slice of the store's
	// byte arena, valid while the reader's transaction lives.
	Rec []byte
	// Depth is the number of versions examined to resolve visibility.
	Depth int
}

// unlinked is a record cut from its chain, waiting until a pass runs at a
// watermark above at, the last commit timestamp when it was cut.
type unlinked struct {
	i  uint32
	at int64
}

// VersionStore holds the version chains of one table.
type VersionStore struct {
	stats *VersionStats
	// lastRID is the newest RID NewRID handed out.
	lastRID atomic.Uint64
	// lastCommit reads the transaction manager's newest published commit
	// timestamp. The store calls it under mu, so it must take no latch.
	lastCommit func() int64

	// mu protects the slots, the directories, the records but their
	// commit stamps, the allocation state, the pending removals and the
	// garbage set with its counters.
	//sqlcm:lock storage.version
	//sqlcm:guards dir, heads, base, live, pend, garbage, grown, residue, prunedAt, nrec, freeRecs, freeBytes, free, cur, used, fill, held, scanAt, spare, quarantine, safe
	mu  sync.RWMutex
	dir arena
	// heads[i] is the head record of RID base+i (with the dirty bit), 0
	// for a RID whose row is gone or was never installed. Leading empty
	// slots are trimmed (base moves up), so a table that drops its oldest
	// rows keeps no slot for them; interior holes cost 4 bytes each. live
	// counts the non-empty slots.
	heads []uint32
	base  RID
	live  int
	// pend holds each row's deferred index-entry removals — at most one
	// per (index, key): a key leaving the row adds one, the key returning
	// cancels it.
	pend map[RID][]Pending
	// garbage is the set of rows Prune can find work in. Invariant: every
	// row with more than one version, a tombstone head or a pending entry
	// is in it (and marked dirty) — a row outside it is one live version,
	// which no watermark makes garbage. Rows enter on Push, Tombstone,
	// AddPending and RestorePending; Prune drops the ones it leaves clean
	// and the ones Pop or Discard removed from the store since they
	// entered.
	garbage []RID
	// grown counts the versions pushed or rolled back since the last
	// Prune; residue the versions that pass examined and had to keep,
	// prunedAt its watermark. PruneDue weighs them.
	grown, residue int
	prunedAt       int64

	// nrec is the number of record indices taken from the chunks so far
	// (index 0 included); freeRecs the reusable ones below it.
	nrec     uint32
	freeRecs []uint32
	// freeBytes[g] holds reusable ranges of g granules, each packed as
	// chunk<<32 | offset; free counts their bytes. cur is the small-row
	// chunk being carved (noChunk before the first) and used the bytes
	// taken from it.
	freeBytes [][]uint64
	free      int
	cur, used uint32
	// fill[c] is the bytes of chunk c that versions hold, live or in
	// quarantine (a big row's chunk counts as full), with the moving bit
	// while a compaction empties it; held is their sum over small-row
	// chunks. A compaction is not tried again before free reaches
	// scanAt. spare lists the directory entries of chunks given back to
	// the collector.
	fill   []uint32
	held   int
	scanAt int
	spare  []uint32
	// quarantine holds unlinked records in the order they were cut, so
	// their tags ascend; safe is the highest watermark a pass ran at.
	quarantine []unlinked
	safe       int64
}

// NewVersionStore returns an empty store reporting into stats. lastCommit
// reads the commit timestamp the transaction manager published last
// (txn.Manager.LastCommit) and takes no latch.
func NewVersionStore(stats *VersionStats, lastCommit func() int64) *VersionStore {
	if stats == nil {
		stats = &VersionStats{}
	}
	if lastCommit == nil {
		panic("storage: a version store needs the last commit timestamp")
	}
	return &VersionStore{stats: stats, lastCommit: lastCommit, base: 1, cur: noChunk, used: byteChunk}
}

// Stats returns the shared counters.
func (s *VersionStore) Stats() *VersionStats { return s.stats }

// NewRID hands out the RID for a row about to be inserted: one greater than
// any the store handed out before.
func (s *VersionStore) NewRID() RID { return RID(s.lastRID.Add(1)) }

// Install creates the chain for a freshly inserted row at a RID from
// NewRID, copying rec into the arena. committed installs the version
// pre-stamped with BaseCommitTS (engine-internal inserts that must be
// visible to every snapshot); otherwise the caller stamps the returned
// version at commit.
func (s *VersionStore) Install(rid RID, rec []byte, txnID int64, committed bool) Ref {
	var ts int64
	if committed {
		ts = BaseCommitTS
	}
	s.mu.Lock()
	i, r := s.take(rec, false, txnID, ts, 0)
	s.heads[s.setSlot(rid)] = i
	s.mu.Unlock()
	s.stats.Retained.Add(1)
	return Ref{r}
}

// take fills a free or fresh record with a version of rec (or a
// tombstone) whose older version is next. The caller holds mu.
//
//sqlcm:lock-held storage.version
func (s *VersionStore) take(rec []byte, tomb bool, txnID, commit int64, next uint32) (uint32, *record) {
	var i uint32
	if n := len(s.freeRecs); n > 0 {
		i, s.freeRecs = s.freeRecs[n-1], s.freeRecs[:n-1]
	} else {
		if s.nrec == 0 {
			s.nrec = 1 // index 0 ends a chain
		}
		if s.nrec == dirty {
			panic("storage: a table's version store is out of record indices")
		}
		i = s.nrec
		s.nrec++
		if int(i>>recShift) == len(s.dir.recs) {
			s.dir.recs = append(s.dir.recs, new(recChunk))
		}
	}
	r := s.dir.rec(i)
	r.commit.Store(commit)
	r.txn, r.next, r.n, r.at = txnID, next, tombstone, 0
	if !tomb {
		r.n, r.at = uint32(len(rec)), s.putBytes(rec)
	}
	return i, r
}

// putBytes copies b into the arena and returns where (chunk<<32 |
// offset): a reusable range of its granule count if there is one, else
// the end of the current small-row chunk, else a fresh chunk. The caller
// holds mu.
//
//sqlcm:lock-held storage.version
func (s *VersionStore) putBytes(b []byte) uint64 {
	n := uint32(len(b))
	switch {
	case n == 0:
		return 0
	case n > bigRow:
		c := s.newChunk(n)
		s.fill[c] = byteChunk
		copy(s.dir.bytes[c], b)
		return uint64(c) << 32
	}
	g := (n + granule - 1) / granule
	var chunk, off uint32
	if int(g) < len(s.freeBytes) && len(s.freeBytes[g]) > 0 {
		l := s.freeBytes[g]
		p := l[len(l)-1]
		s.freeBytes[g] = l[:len(l)-1]
		s.free -= int(g * granule)
		chunk, off = uint32(p>>32), uint32(p)
	} else {
		if s.used+g*granule > byteChunk {
			// The rest of the current chunk (less than bigRow) becomes a
			// free range of its own.
			if rest := byteChunk - s.used; rest > 0 {
				s.freeRange(s.cur, s.used, rest/granule)
			}
			s.cur, s.used = s.newChunk(byteChunk), 0
		}
		chunk, off = s.cur, s.used
		s.used += g * granule
	}
	s.fill[chunk] += g * granule
	s.held += int(g * granule)
	copy(s.dir.bytes[chunk][off:], b)
	return uint64(chunk)<<32 | uint64(off)
}

// newChunk adds a byte chunk of size bytes and returns its directory
// entry, reusing the entry of a chunk given back. The caller holds mu.
//
//sqlcm:lock-held storage.version
func (s *VersionStore) newChunk(size uint32) uint32 {
	if n := len(s.spare); n > 0 {
		c := s.spare[n-1]
		s.spare = s.spare[:n-1]
		s.dir.bytes[c] = make([]byte, size)
		return c
	}
	s.dir.bytes = append(s.dir.bytes, make([]byte, size))
	s.fill = append(s.fill, 0)
	return uint32(len(s.dir.bytes) - 1)
}

// release gives chunk c back to the collector. The caller holds mu.
//
//sqlcm:lock-held storage.version
func (s *VersionStore) release(c uint32) {
	s.dir.bytes[c], s.fill[c] = nil, 0
	s.spare = append(s.spare, c)
}

// freeRange makes g granules at (chunk, off) reusable. The caller holds mu.
//
//sqlcm:lock-held storage.version
func (s *VersionStore) freeRange(chunk, off, g uint32) {
	for len(s.freeBytes) <= int(g) {
		s.freeBytes = append(s.freeBytes, nil)
	}
	s.freeBytes[g] = append(s.freeBytes[g], uint64(chunk)<<32|uint64(off))
	s.free += int(g * granule)
}

// freeAt lets go of n bytes at p (chunk<<32 | offset): a big row's chunk
// goes back to the collector, a range of a chunk being emptied counts down
// to the chunk's return, and any other range becomes reusable. The caller
// holds mu.
//
//sqlcm:lock-held storage.version
func (s *VersionStore) freeAt(p uint64, n uint32) {
	c := uint32(p >> 32)
	switch {
	case n == tombstone || n == 0:
		return
	case n > bigRow:
		s.release(c)
		return
	}
	g := (n + granule - 1) / granule
	s.fill[c] -= g * granule
	s.held -= int(g * granule)
	switch {
	case s.fill[c] == moving:
		s.release(c)
	case s.fill[c]&moving == 0:
		s.freeRange(c, uint32(p), g)
	}
}

// compact empties the small-row chunks less than half full once the free
// ranges outweigh the bytes versions hold, so a table whose rows shrink,
// change length or are mostly deleted gives the space back. It marks the
// chunks moving, drops their free ranges and copies the bytes of every
// version in them into other chunks; a chunk goes back to the collector
// once the quarantine has let go of the cut records still in it. Readers
// resolve bytes under the read latch, so none finds an old range after
// the move, and a slice taken before it keeps its chunk alive for the
// collector, as after Reset. compact walks every chain, so it runs only
// when the chunks it empties hold at least half the free bytes; a look
// that finds less waits until the free bytes have doubled. The caller
// holds mu.
//
//sqlcm:lock-held storage.version
func (s *VersionStore) compact() {
	if s.free <= s.held+compactSlack*byteChunk || s.free < s.scanAt {
		return
	}
	sparse := func(c int, f uint32) bool {
		return f < byteChunk/2 && uint32(c) != s.cur && s.dir.bytes[c] != nil
	}
	gain := 0
	for c, f := range s.fill {
		if sparse(c, f) {
			gain += byteChunk - int(f)
		}
	}
	if gain < s.free/2 {
		s.scanAt = 2 * s.free
		return
	}
	s.scanAt = 0
	for c, f := range s.fill {
		if sparse(c, f) {
			s.fill[c] |= moving
		}
	}
	for g, l := range s.freeBytes {
		kept := l[:0]
		for _, p := range l {
			if s.fill[p>>32]&moving == 0 {
				kept = append(kept, p)
			} else {
				s.free -= g * granule
			}
		}
		s.freeBytes[g] = kept
	}
	for _, h := range s.heads {
		for i := h &^ dirty; i != 0; i = s.dir.rec(i).next {
			r := s.dir.rec(i)
			p := r.at
			if r.n == tombstone || r.n == 0 || r.n > bigRow || s.fill[p>>32]&moving == 0 {
				continue
			}
			r.at = s.putBytes(s.dir.data(r))
			s.freeAt(p, r.n)
		}
	}
	for c, f := range s.fill {
		if f == moving {
			s.release(uint32(c))
		}
	}
}

// slot returns the index into heads of rid's slot, -1 when rid has no row.
// The caller holds mu.
//
//sqlcm:lock-held storage.version
func (s *VersionStore) slot(rid RID) int {
	if rid < s.base || rid-s.base >= RID(len(s.heads)) || s.heads[rid-s.base] == 0 {
		return -1
	}
	return int(rid - s.base)
}

// setSlot opens the slot of rid, growing the slot array to take it, and
// returns its index. The caller holds mu. rid may lie below base: a RID
// NewRID handed out has an empty slot until Install, and drop trims the
// leading empty slots, so the slot array grows back down to it.
//
//sqlcm:lock-held storage.version
func (s *VersionStore) setSlot(rid RID) int {
	if rid < s.base {
		s.heads = append(make([]uint32, s.base-rid), s.heads...)
		s.base = rid
	}
	i := int(rid - s.base)
	for len(s.heads) <= i {
		s.heads = append(s.heads, 0)
	}
	s.live++
	return i
}

// drop empties rid's slot, forgets its pending removals and trims the
// leading empty slots. The caller holds mu and has checked that the slot
// is set.
//
//sqlcm:lock-held storage.version
func (s *VersionStore) drop(rid RID) {
	s.heads[rid-s.base] = 0
	delete(s.pend, rid)
	s.live--
	for len(s.heads) > 0 && s.heads[0] == 0 {
		s.heads = s.heads[1:]
		s.base++
	}
}

// Push prepends a new version carrying a copy of rec (UPDATE).
func (s *VersionStore) Push(rid RID, rec []byte, txnID int64) Ref {
	return s.push(rid, rec, false, txnID)
}

// Tombstone prepends a deletion marker (DELETE). The chain and the index
// entries stay in place until Prune reclaims them.
func (s *VersionStore) Tombstone(rid RID, txnID int64) Ref {
	return s.push(rid, nil, true, txnID)
}

func (s *VersionStore) push(rid RID, rec []byte, tomb bool, txnID int64) Ref {
	s.mu.Lock()
	k := s.slot(rid)
	var next uint32
	if k >= 0 {
		next = s.heads[k] &^ dirty
	}
	i, r := s.take(rec, tomb, txnID, 0, next)
	if k < 0 {
		// Defensive: a row the store has never seen (should not happen —
		// every insert installs a chain). Adopt it with this version as
		// the only one.
		k = s.setSlot(rid)
	}
	s.heads[k] = i | s.heads[k]&dirty
	s.markGarbage(rid, k)
	s.grown++
	s.mu.Unlock()
	s.stats.Retained.Add(1)
	return Ref{r}
}

// markGarbage enters the row at rid, in slot k, into the garbage set. The
// caller holds mu.
//
//sqlcm:lock-held storage.version
func (s *VersionStore) markGarbage(rid RID, k int) {
	if s.heads[k]&dirty == 0 {
		s.heads[k] |= dirty
		s.garbage = append(s.garbage, rid)
	}
}

// cut queues record i, just unlinked from the store, for reuse once a pass
// runs at a watermark above the last commit published now: every
// transaction registered now holds a snapshot at or below it. The caller
// holds mu.
//
//sqlcm:lock-held storage.version
func (s *VersionStore) cut(i uint32) {
	// Read after the unlink, under the latch: a reader that found i before
	// then registered before it read the store.
	//sqlcm:allow lastCommit is txn.Manager.LastCommit, one atomic load that takes no latch
	s.quarantine = append(s.quarantine, unlinked{i: i, at: s.lastCommit()})
}

// unlink cuts every record of the chain from record i, just unlinked from
// the store, and returns how many. The records keep their next links: a
// reader may be walking them. The caller holds mu.
//
//sqlcm:lock-held storage.version
func (s *VersionStore) unlink(i uint32) int {
	n := 0
	for ; i != 0; i = s.dir.rec(i).next {
		s.cut(i)
		n++
	}
	return n
}

// reclaim makes the quarantined records whose tag is below safe, the
// newest pass's watermark, reusable with their bytes, and compacts the
// arena when it is mostly free. The caller holds mu.
//
//sqlcm:lock-held storage.version
func (s *VersionStore) reclaim() {
	n := 0
	for _, q := range s.quarantine {
		if q.at >= s.safe {
			break
		}
		r := s.dir.rec(q.i)
		s.freeAt(r.at, r.n)
		s.freeRecs = append(s.freeRecs, q.i)
		n++
	}
	s.quarantine = slices.Delete(s.quarantine, 0, n)
	s.compact()
}

// Pop removes the newest version (transaction rollback of one UPDATE or
// DELETE) and the deferred removals it registered. The chain must hold an
// older version underneath.
func (s *VersionStore) Pop(rid RID) {
	s.mu.Lock()
	if k := s.slot(rid); k >= 0 {
		h := s.heads[k] &^ dirty
		r := s.dir.rec(h)
		if ps := s.pend[rid]; len(ps) > 0 {
			s.setPend(rid, slices.DeleteFunc(ps, func(p Pending) bool { return p.By.r == r }))
		}
		if n := r.next; n != 0 {
			s.heads[k] = n | s.heads[k]&dirty
		} else {
			s.drop(rid)
		}
		s.cut(h)
		s.grown++
		s.stats.Retained.Add(-1)
	}
	s.mu.Unlock()
}

// Discard drops the whole chain at rid (INSERT rollback). The RID is not
// handed out again.
func (s *VersionStore) Discard(rid RID) {
	s.mu.Lock()
	if k := s.slot(rid); k >= 0 {
		n := s.unlink(s.heads[k] &^ dirty)
		s.drop(rid)
		s.grown += n
		s.stats.Retained.Add(-int64(n))
	}
	s.mu.Unlock()
}

// ReadAt resolves the row at rid (an index entry's RID) for snap. ok is
// false when the row is invisible to the snapshot or gone; Depth is set
// either way.
func (s *VersionStore) ReadAt(rid RID, snap Snapshot) (row ChainRow, ok bool) {
	row.Rid = rid
	s.mu.RLock()
	if k := s.slot(rid); k >= 0 {
		a := s.dir
		vis, depth := a.visibleTo(s.heads[k]&^dirty, snap)
		row.Depth = depth
		if ok = vis != nil && vis.n != tombstone; ok {
			row.Rec = a.data(vis)
		}
	}
	s.mu.RUnlock()
	return row, ok
}

// SnapScan materializes every row visible to snap in RID order, which is
// insertion order: the slot order. The row set is captured atomically with
// respect to chain installation and pruning.
func (s *VersionStore) SnapScan(snap Snapshot) []ChainRow {
	s.mu.RLock()
	a := s.dir
	out := make([]ChainRow, 0, s.live)
	for i, h := range s.heads {
		if h == 0 {
			continue
		}
		vis, depth := a.visibleTo(h&^dirty, snap)
		if vis == nil || vis.n == tombstone {
			continue
		}
		out = append(out, ChainRow{Rid: s.base + RID(i), Rec: a.data(vis), Depth: depth})
	}
	s.mu.RUnlock()
	return out
}

// setPend replaces rid's pending removals. The caller holds mu.
//
//sqlcm:lock-held storage.version
func (s *VersionStore) setPend(rid RID, ps []Pending) {
	if len(ps) == 0 {
		delete(s.pend, rid)
		return
	}
	if s.pend == nil {
		s.pend = make(map[RID][]Pending)
	}
	s.pend[rid] = ps
}

// AddPending defers removal of the row's index entry (index, key) until by
// is visible to every snapshot.
func (s *VersionStore) AddPending(rid RID, index string, key []byte, by Ref) {
	s.RestorePending(rid, Pending{Index: index, Key: key, Rid: rid, By: by})
}

// TakePending removes and returns the deferred removal of (index, key), if
// one exists: the entry is being resurrected as the row's current key (or
// an update is being rolled back), so it must not be reclaimed. The
// returned Pending allows exact restoration.
func (s *VersionStore) TakePending(rid RID, index string, key []byte) (Pending, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ps := s.pend[rid]
	for i, p := range ps {
		if p.Index == index && string(p.Key) == string(key) {
			s.setPend(rid, slices.Delete(ps, i, i+1))
			return p, true
		}
	}
	return Pending{}, false
}

// RestorePending re-registers a deferred removal taken by TakePending.
func (s *VersionStore) RestorePending(rid RID, p Pending) {
	s.mu.Lock()
	if k := s.slot(rid); k >= 0 {
		s.setPend(rid, append(s.pend[rid], p))
		s.markGarbage(rid, k)
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
// were pushed or rolled back since the last one, provided it can find new
// garbage: the watermark moved past the last pass's, or the pushes since
// outnumber the versions that pass had to keep. The second arm keeps a
// pinned watermark (a long-open snapshot) from turning every batch into a
// rescan of the same un-prunable set: the passes then space out
// geometrically. watermark is called without the store's latch held.
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
// What it cuts goes into the quarantine; what earlier cuts left there
// becomes reusable once watermark passes its tag. watermark must be one
// the transaction manager returned (it never decreases).
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
		k := s.slot(rid)
		if k < 0 {
			continue // rolled back (Pop, Discard) since it entered the set
		}

		// Sweep deferred index-entry removals.
		if ps := s.pend[rid]; len(ps) > 0 {
			keep := ps[:0]
			for _, p := range ps {
				if ts := p.By.CommitTS(); ts != 0 && ts <= watermark {
					entries = append(entries, p)
				} else {
					keep = append(keep, p)
				}
			}
			s.setPend(rid, keep)
		}

		head := s.heads[k] &^ dirty
		hr := s.dir.rec(head)
		// Whole-row death: the version visible at the watermark is a
		// tombstone, so no live or future snapshot sees any data.
		if ts := hr.commit.Load(); hr.n == tombstone && ts != 0 && ts <= watermark {
			entries = append(entries, s.pend[rid]...)
			pruned += int64(s.unlink(head))
			s.drop(rid)
			continue
		}
		// Interior truncation below the newest watermark-visible version.
		n := 0
		for i := head; i != 0; {
			r := s.dir.rec(i)
			n++
			if ts := r.commit.Load(); ts != 0 && ts <= watermark {
				if tail := r.next; tail != 0 {
					r.next = 0
					pruned += int64(s.unlink(tail))
				}
				break
			}
			i = r.next
		}
		if n == 1 && hr.n != tombstone && len(s.pend[rid]) == 0 {
			s.heads[k] &^= dirty // one live version: nothing for any later pass
			continue
		}
		residue += n
		kept = append(kept, rid)
	}
	s.garbage = kept
	s.grown, s.residue, s.prunedAt = 0, residue, watermark
	s.safe = max(s.safe, watermark)
	s.reclaim()
	s.mu.Unlock()
	s.stats.Scanned.Add(int64(scanned))
	if pruned > 0 {
		s.stats.Pruned.Add(pruned)
		s.stats.Retained.Add(-pruned)
	}
	return entries
}

// Reset drops every chain (TRUNCATE). RIDs keep counting from where they
// were, and the slot array starts past the last one handed out. The chunks
// go to the collector, which keeps them for any reader still walking them.
func (s *VersionStore) Reset() {
	s.mu.Lock()
	var n int64
	for _, h := range s.heads {
		for i := h &^ dirty; i != 0; i = s.dir.rec(i).next {
			n++
		}
	}
	s.dir, s.heads, s.base, s.live, s.pend = arena{}, nil, RID(s.lastRID.Load())+1, 0, nil
	s.garbage, s.grown, s.residue = nil, 0, 0
	s.nrec, s.freeRecs, s.freeBytes, s.free = 0, nil, nil, 0
	s.cur, s.used, s.fill, s.held, s.scanAt, s.spare, s.quarantine = noChunk, byteChunk, nil, 0, 0, nil, nil
	s.mu.Unlock()
	s.stats.Retained.Add(-n)
}

// Chains returns the number of live chains (diagnostics and tests).
func (s *VersionStore) Chains() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.live
}
