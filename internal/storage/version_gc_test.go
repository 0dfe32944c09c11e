package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// refPrune is the full-walk Prune this package had before the garbage set:
// every chain of the store is examined at every pass. It is kept as the
// reference the set-driven Prune must agree with — same work returned, same
// versions cut, same chains dropped.
func refPrune(s *VersionStore, watermark int64) []Pending {
	var entries []Pending
	var pruned int64
	s.mu.Lock()
	for rid, head := range eachChain(s) {
		kept := []Pending(nil)
		for _, p := range s.pend[rid] {
			if ts := p.By.CommitTS(); ts != 0 && ts <= watermark {
				entries = append(entries, p)
			} else {
				kept = append(kept, p)
			}
		}
		s.setPend(rid, kept)

		hr := s.dir.rec(head)
		if ts := hr.commit.Load(); hr.n == tombstone && ts != 0 && ts <= watermark {
			entries = append(entries, s.pend[rid]...)
			pruned += int64(s.unlink(head))
			s.drop(rid)
			continue
		}
		for i := head; i != 0; i = s.dir.rec(i).next {
			r := s.dir.rec(i)
			if ts := r.commit.Load(); ts != 0 && ts <= watermark {
				if tail := r.next; tail != 0 {
					r.next = 0
					pruned += int64(s.unlink(tail))
				}
				break
			}
		}
	}
	s.safe = max(s.safe, watermark)
	s.reclaim()
	s.mu.Unlock()
	if pruned > 0 {
		s.stats.Pruned.Add(pruned)
		s.stats.Retained.Add(-pruned)
	}
	return entries
}

// eachChain returns the store's chains keyed by RID, their head records
// from a copy of the slot array without its empty slots. The caller holds
// s.mu.
func eachChain(s *VersionStore) map[RID]uint32 {
	out := make(map[RID]uint32, s.live)
	for i, h := range s.heads {
		if h != 0 {
			out[s.base+RID(i)] = h &^ dirty
		}
	}
	return out
}

// workString renders a pass's work order-independently (both walks visit
// chains in no particular order).
func workString(entries []Pending) string {
	var parts []string
	for _, p := range entries {
		parts = append(parts, fmt.Sprintf("entry %s/%s/%v by@%d", p.Index, p.Key, p.Rid, p.By.CommitTS()))
	}
	sort.Strings(parts)
	return strings.Join(parts, "; ")
}

// dumpStore renders every chain: RID, versions newest first, pending
// entries.
func dumpStore(s *VersionStore) string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var lines []string
	for rid, head := range eachChain(s) {
		var b strings.Builder
		fmt.Fprintf(&b, "%v:", rid)
		for i := head; i != 0; i = s.dir.rec(i).next {
			r := s.dir.rec(i)
			fmt.Fprintf(&b, " [%q t%d c%d]", s.dir.data(r), r.txn, r.commit.Load())
		}
		var pend []string
		for _, p := range s.pend[rid] {
			pend = append(pend, string(p.Key))
		}
		sort.Strings(pend)
		fmt.Fprintf(&b, " pend%v", pend)
		lines = append(lines, b.String())
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// checkGarbageInvariant fails unless every chain that could ever hold
// garbage — more than one version, a tombstone head or a pending entry — is
// in the garbage set. Right after a pass (pruned) the set must also hold
// nothing else: no rolled-back chain, no chain the pass left clean.
func checkGarbageInvariant(t *testing.T, s *VersionStore, pruned bool) {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	collectable := func(rid RID, head uint32) bool {
		hr := s.dir.rec(head)
		return hr.next != 0 || hr.n == tombstone || len(s.pend[rid]) > 0
	}
	in := make(map[RID]bool, len(s.garbage))
	for _, rid := range s.garbage {
		if in[rid] {
			t.Fatalf("chain %v is in the garbage set twice", rid)
		}
		in[rid] = true
		if k := s.slot(rid); pruned && (k < 0 || !collectable(rid, s.heads[k]&^dirty)) {
			t.Fatalf("chain %v survived a pass in the garbage set with nothing to collect", rid)
		}
	}
	for rid, head := range eachChain(s) {
		marked := s.heads[rid-s.base]&dirty != 0
		if !marked && collectable(rid, head) {
			t.Fatalf("chain %v can hold garbage but is not marked", rid)
		}
		if marked != in[rid] {
			t.Fatalf("chain %v: dirty=%v, in the garbage set=%v", rid, marked, in[rid])
		}
	}
}

// driveStore runs a seeded sequence of everything a table's writers do to a
// version store — inserts, autocommit and in-transaction updates and
// deletes, key changes with deferred index removals, commits and rollbacks —
// pruning with prune at non-decreasing watermarks, and returns a trace of
// every pass's work plus the store's state after it. Every choice comes
// from the seed and from what the store answers, so two prune
// implementations that agree produce identical traces. After every
// operation it holds the store to its RID contract: NewRID never repeats a
// RID, though inserts roll back and passes drop rows, and SnapScan returns
// rows in install order.
func driveStore(t *testing.T, seed int64, prune func(*VersionStore, int64) []Pending, check func(s *VersionStore, pruned bool)) []string {
	rng := rand.New(rand.NewSource(seed))
	stats := &VersionStats{}
	var ts, wm int64
	s := NewVersionStore(stats, func() int64 { return ts })
	const rows, steps, self = 24, 600, 7

	// open is the uncommitted work of the one in-flight writer (strict 2PL:
	// one per table) — its versions to stamp on commit and its undo actions
	// to run, newest first, on rollback.
	var openVers []Ref
	var openUndo []func()
	cur := make(map[int]RID) // row → its RID while the row has a chain
	var installed []RID      // every RID installed, in install order
	var trace []string

	headIsTombstone := func(rid RID) bool {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return s.dir.rec(s.heads[s.slot(rid)]&^dirty).n == tombstone
	}
	lastRow := 0
	for step := 0; step < steps; step++ {
		// Inside a transaction, half the statements hit the row the previous
		// one wrote (insert-then-update, update-then-delete).
		row := lastRow
		if len(openVers) == 0 || rng.Intn(2) == 0 {
			row = rng.Intn(rows)
		}
		lastRow = row
		rid, exists := cur[row]
		if exists {
			// A fully pruned tombstone took the chain away.
			if cr, _ := s.ReadAt(rid, CurrentSnapshot(self)); cr.Depth == 0 {
				delete(cur, row)
				exists = false
			}
		}
		inTxn := rng.Intn(3) == 0
		rec := []byte(fmt.Sprintf("row%d@%d", row, step))
		switch op := rng.Intn(10); {
		case !exists:
			rid = s.NewRID()
			if n := len(installed); n > 0 && rid <= installed[n-1] {
				t.Fatalf("seed %d step %d: NewRID handed out %v after %v", seed, step, rid, installed[n-1])
			}
			installed = append(installed, rid)
			v := s.Install(rid, rec, self, false)
			cur[row] = rid
			openVers = append(openVers, v)
			openUndo = append(openUndo, func() { s.Discard(rid); delete(cur, row) })
		case headIsTombstone(rid):
			// Deleted and not yet collected: nothing may be written.
		case op < 6:
			v := s.Push(rid, rec, self)
			openVers = append(openVers, v)
			undo := func() { s.Pop(rid) }
			if rng.Intn(3) == 0 { // the update changed an indexed key
				key := []byte(fmt.Sprintf("k%d", rng.Intn(4)))
				if p, ok := s.TakePending(rid, "ix", key); ok {
					// The key came back to the row: its removal is off.
					undo = func() { s.RestorePending(rid, p); s.Pop(rid) }
				} else {
					s.AddPending(rid, "ix", key, v)
					undo = func() { s.TakePending(rid, "ix", key); s.Pop(rid) }
				}
			}
			openUndo = append(openUndo, undo)
		case op < 8:
			v := s.Tombstone(rid, self)
			s.AddPending(rid, "ix", []byte("dead"), v)
			openVers = append(openVers, v)
			openUndo = append(openUndo, func() {
				s.TakePending(rid, "ix", []byte("dead"))
				s.Pop(rid)
			})
		}
		// End the writer's transaction: autocommit, or after a few
		// statements a commit or a rollback.
		if !inTxn || rng.Intn(4) == 0 {
			if rng.Intn(5) == 0 {
				for i := len(openUndo) - 1; i >= 0; i-- {
					openUndo[i]()
				}
			} else if len(openVers) > 0 {
				ts++
				for _, v := range openVers {
					v.SetCommit(ts)
				}
			}
			openVers, openUndo = nil, nil
		}
		checkScanOrder(t, s.SnapScan(CurrentSnapshot(self)), installed)
		if check != nil {
			check(s, false)
		}
		if rng.Intn(12) == 0 {
			if ts > wm {
				wm += rng.Int63n(ts - wm + 1)
			}
			w := prune(s, wm)
			trace = append(trace, fmt.Sprintf("step %d prune@%d: %s\npruned=%d retained=%d\n%s",
				step, wm, workString(w), stats.Pruned.Load(), stats.Retained.Load(), dumpStore(s)))
			checkScanOrder(t, s.SnapScan(CurrentSnapshot(self)), installed)
			if check != nil {
				check(s, true)
			}
		}
	}
	return trace
}

// checkScanOrder fails unless scan's RIDs ascend and occur in installed (the
// RIDs in install order) in the same order.
func checkScanOrder(t *testing.T, scan []ChainRow, installed []RID) {
	t.Helper()
	i := 0
	for k, r := range scan {
		if k > 0 && r.Rid <= scan[k-1].Rid {
			t.Fatalf("SnapScan returned %v after %v", r.Rid, scan[k-1].Rid)
		}
		for i < len(installed) && installed[i] != r.Rid {
			i++
		}
		if i == len(installed) {
			t.Fatalf("SnapScan row %v is out of install order", r.Rid)
		}
		i++
	}
}

// The set-driven Prune collects exactly what the full walk collected, pass
// for pass, over everything writers do to a store — and the garbage-set
// invariant holds after every operation.
func TestPruneMatchesFullWalk(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		want := driveStore(t, seed, refPrune, nil)
		got := driveStore(t, seed, (*VersionStore).Prune, func(s *VersionStore, pruned bool) { checkGarbageInvariant(t, s, pruned) })
		if len(want) == 0 {
			t.Fatalf("seed %d: the sequence never pruned", seed)
		}
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				t.Fatalf("seed %d, pass %d:\n--- full walk\n%s\n--- garbage set\n%s", seed, i, want[i], got[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d passes, the full walk made %d", seed, len(got), len(want))
		}
	}
}

// sparseStore installs n committed rows (RIDs 1..n) and then updates every
// stride-th one, committed at timestamp 2: the shape of a large table a few
// writers touched since the last pass. clock is the store's last commit.
func sparseStore(n, dirty int, clock func() int64) (*VersionStore, *VersionStats) {
	stats := &VersionStats{}
	s := NewVersionStore(stats, clock)
	for i := 0; i < n; i++ {
		s.Install(s.NewRID(), []byte("base"), 1, false).SetCommit(1)
	}
	touchSparse(s, n, dirty, 2)
	return s, stats
}

func touchSparse(s *VersionStore, n, dirty int, ts int64) {
	for i := 0; i < dirty; i++ {
		s.Push(RID(1+i*(n/dirty)), []byte("new"), ts).SetCommit(ts)
	}
}

// A pass costs what was written, not what is stored: with 100 000 chains of
// which 256 were updated, Prune examines those 256 and discards exactly
// what the full walk discards.
func TestPruneScansOnlyWrittenChains(t *testing.T) {
	const n, dirty = 100_000, 256
	clock := func() int64 { return 2 }
	s, stats := sparseStore(n, dirty, clock)
	ref, refStats := sparseStore(n, dirty, clock)

	got, want := s.Prune(2), refPrune(ref, 2)
	if scanned := stats.Scanned.Load(); scanned > dirty {
		t.Fatalf("pass examined %d chains for %d written", scanned, dirty)
	}
	if workString(got) != workString(want) {
		t.Fatalf("work differs from the full walk:\n%s\n%s", workString(got), workString(want))
	}
	if stats.Pruned.Load() != dirty || stats.Pruned.Load() != refStats.Pruned.Load() ||
		stats.Retained.Load() != refStats.Retained.Load() {
		t.Fatalf("pruned/retained %d/%d, the full walk %d/%d", stats.Pruned.Load(), stats.Retained.Load(),
			refStats.Pruned.Load(), refStats.Retained.Load())
	}
	if dumpStore(s) != dumpStore(ref) {
		t.Fatal("stores differ after the pass")
	}
	// Everything is clean again: the next pass has nothing to look at.
	s.Prune(2)
	if scanned := stats.Scanned.Load(); scanned > dirty {
		t.Fatalf("second pass examined %d more chains", scanned-dirty)
	}
}

// PruneDue batches passes, and with the watermark pinned spaces them out
// geometrically instead of rescanning the same un-prunable set every batch.
func TestPruneDueBacksOffUnderPinnedWatermark(t *testing.T) {
	stats := &VersionStats{}
	ts := int64(1)
	s := NewVersionStore(stats, func() int64 { return ts })
	rid := s.NewRID()
	s.Install(rid, []byte("base"), 1, false).SetCommit(1)
	const pinned = 1
	wm := func() int64 { return pinned }
	var passes []int
	for i := 1; i <= 20*PruneBatch; i++ {
		ts++
		s.Push(rid, []byte("v"), ts).SetCommit(ts)
		if at, due := s.PruneDue(wm); due {
			s.Prune(at)
			passes = append(passes, i)
		}
	}
	if len(passes) == 0 || passes[0] != PruneBatch {
		t.Fatalf("first pass after %v pushes, want %d", passes, PruneBatch)
	}
	if len(passes) > 6 { // each pass keeps what it walked, so the gaps double: 256, 513, 1027, …
		t.Fatalf("%d passes over one pinned chain: %v", len(passes), passes)
	}
	if stats.Pruned.Load() != 0 {
		t.Fatalf("pruned %d versions above a pinned watermark", stats.Pruned.Load())
	}
	// The snapshot closes: the next full batch — here the very next push —
	// runs a pass, and it reclaims everything.
	ts++
	s.Push(rid, []byte("v"), ts).SetCommit(ts)
	at, due := s.PruneDue(func() int64 { return ts })
	if !due {
		t.Fatal("no pass due after the watermark moved")
	}
	s.Prune(at)
	if stats.Retained.Load() != 1 {
		t.Fatalf("%d versions retained after the watermark moved, want 1", stats.Retained.Load())
	}
}

// A chain rolled back out of the store while it sat in the garbage set is
// dropped by the next pass, whatever it still held.
func TestPruneDropsDiscardedChains(t *testing.T) {
	stats := &VersionStats{}
	s := NewVersionStore(stats, func() int64 { return 1 })
	rid := s.NewRID()
	s.Install(rid, []byte("a"), 7, false)
	s.Push(rid, []byte("b"), 7)
	s.Discard(rid)
	if again := s.NewRID(); again == rid {
		t.Fatalf("RID %v handed out again after its insert rolled back", rid)
	} else {
		s.Install(again, []byte("c"), 8, false).SetCommit(1)
	}
	s.Prune(1)
	checkGarbageInvariant(t, s, true)
	if got := stats.Retained.Load(); got != 1 {
		t.Fatalf("retained %d, want the one re-inserted row", got)
	}
}

var benchWork []Pending

// BenchmarkPruneSparse times one pass over a 100 000-chain store in which
// 256 chains were written since the last pass.
func BenchmarkPruneSparse(b *testing.B) {
	const n, dirty = 100_000, 256
	last := int64(2)
	s, _ := sparseStore(n, dirty, func() int64 { return last })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts := int64(i + 2)
		benchWork = s.Prune(ts)
		b.StopTimer()
		touchSparse(s, n, dirty, ts+1)
		last = ts + 1
		b.StartTimer()
	}
}

// TRUNCATE moves the slot array past every RID handed out: the next insert
// does not reserve a slot for each dropped row.
func TestResetDoesNotReserveDroppedRIDs(t *testing.T) {
	s := NewVersionStore(nil, func() int64 { return 0 })
	for i := 0; i < 10_000; i++ {
		s.Install(s.NewRID(), []byte("row"), 0, true)
	}
	s.Reset()
	rid := s.NewRID()
	s.Install(rid, []byte("after"), 0, true)
	if n := len(s.heads); n > 1 {
		t.Fatalf("%d slots after TRUNCATE and one insert", n)
	}
	if cr, ok := s.ReadAt(rid, CurrentSnapshot(0)); !ok || string(cr.Rec) != "after" {
		t.Fatalf("row %v after TRUNCATE: %q, %v", rid, cr.Rec, ok)
	}
	if got := s.SnapScan(CurrentSnapshot(0)); len(got) != 1 || got[0].Rid != rid {
		t.Fatalf("scan after TRUNCATE: %v", got)
	}
}

// A RID handed out but not yet installed has an empty slot, which a drop
// of the rows before it trims: Install grows the slot array back down to
// it.
func TestInstallBelowTrimmedSlots(t *testing.T) {
	s := NewVersionStore(nil, func() int64 { return 0 })
	first := s.NewRID()
	s.Install(first, []byte("first"), 0, true)
	late, next := s.NewRID(), s.NewRID()
	s.Install(next, []byte("next"), 0, true)
	s.Discard(first) // trims first's slot and late's empty one
	s.Install(late, []byte("late"), 0, true)
	for rid, want := range map[RID]string{late: "late", next: "next"} {
		if cr, ok := s.ReadAt(rid, CurrentSnapshot(0)); !ok || string(cr.Rec) != want {
			t.Errorf("row %v: %q, %v; want %q", rid, cr.Rec, ok, want)
		}
	}
}

// A table that deletes its oldest rows (superseded snapshots) keeps no
// slot for them once they are pruned; rows behind an interior hole keep
// their slots and resolve.
func TestLeadingHolesTrimmed(t *testing.T) {
	s := NewVersionStore(nil, func() int64 { return 1 })
	const n, oldest = 100, 60
	for i := 0; i < n; i++ {
		s.Install(s.NewRID(), []byte("row"), 0, true)
	}
	for rid := RID(1); rid <= oldest; rid++ {
		s.Tombstone(rid, 0).SetCommit(1)
	}
	s.Tombstone(oldest+5, 0).SetCommit(1) // an interior hole
	s.Prune(1)
	if s.base != oldest+1 || len(s.heads) != n-oldest {
		t.Fatalf("base %v, %d slots after pruning the %d oldest of %d rows", s.base, len(s.heads), oldest, n)
	}
	if s.Chains() != n-oldest-1 {
		t.Fatalf("%d live chains, want %d", s.Chains(), n-oldest-1)
	}
	for rid := RID(1); rid <= n; rid++ {
		_, ok := s.ReadAt(rid, CurrentSnapshot(0))
		if want := rid > oldest && rid != oldest+5; ok != want {
			t.Fatalf("row %v visible %v, want %v", rid, ok, want)
		}
	}
}

// arenaBytes returns the bytes the store's chunks hold.
func arenaBytes(s *VersionStore) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, c := range s.dir.bytes {
		n += len(c)
	}
	return n
}

// What a pass cuts is reused: 100 000 committed updates of 100 hot rows,
// pruned by the write-path trigger with no snapshot held open, leave the
// store with a bounded multiple of its live rows in records and bytes,
// where keeping every version would take 1000 times the rows.
func TestPrunedSpaceIsReused(t *testing.T) {
	const rows, updates = 100, 100_000
	var ts int64 = 1
	clock := func() int64 { return ts }
	s := NewVersionStore(nil, clock)
	rec := func(rid RID, ver int) []byte { // 17 to 80 bytes
		return []byte(fmt.Sprintf("%d@%d:%s", rid, ver, strings.Repeat("x", (int(rid)*7+ver*13)%64)))
	}
	rids := make([]RID, rows)
	for i := range rids {
		rids[i] = s.NewRID()
		s.Install(rids[i], rec(rids[i], 0), 0, true)
	}
	rng := rand.New(rand.NewSource(1))
	passes := 0
	for u := 1; u <= updates; u++ {
		rid := rids[rng.Intn(rows)]
		ts++
		s.Push(rid, rec(rid, u), ts).SetCommit(ts)
		if wm, due := s.PruneDue(clock); due {
			s.Prune(wm)
			passes++
		}
	}
	if passes < updates/PruneBatch/2 {
		t.Fatalf("%d passes over %d updates", passes, updates)
	}
	// Between two passes the store holds the live rows, a batch of
	// superseded versions and the batch the last pass cut, in
	// quarantine until the next one.
	const maxRecords = 10 * rows
	if s.nrec > maxRecords {
		t.Errorf("%d records taken (%d free) for %d live rows", s.nrec, len(s.freeRecs), rows)
	}
	if got := arenaBytes(s); got > 2*maxRecords*80 {
		t.Errorf("arena holds %d bytes for %d live rows of at most 80", got, rows)
	}
	for _, rid := range rids {
		if _, ok := s.ReadAt(rid, CurrentSnapshot(0)); !ok {
			t.Fatalf("row %v lost", rid)
		}
	}
}

// Rows of every length — empty, within a granule, and past bigRow with a
// chunk of their own — read back exactly through updates and passes, and
// a big row's chunk, once reclaimed, gives its directory entry to the
// next big row instead of the directory growing by one per version.
func TestArenaRowsOfEveryLength(t *testing.T) {
	var ts int64 = 1
	s := NewVersionStore(nil, func() int64 { return ts })
	sizes := []int{0, 1, granule, granule + 1, bigRow, bigRow + 1, 3 * byteChunk}
	row := func(size, ver int) []byte {
		b := make([]byte, size)
		for i := range b {
			b[i] = byte(size + ver + i)
		}
		return b
	}
	rids := make([]RID, len(sizes))
	for i, n := range sizes {
		rids[i] = s.NewRID()
		s.Install(rids[i], row(n, 0), 0, true)
	}
	const versions = 50
	for ver := 1; ver <= versions; ver++ {
		for i, n := range sizes {
			ts++
			s.Push(rids[i], row(n, ver), ts).SetCommit(ts)
		}
		s.Prune(ts)
		for i, n := range sizes {
			if cr, ok := s.ReadAt(rids[i], CurrentSnapshot(0)); !ok || !bytes.Equal(cr.Rec, row(n, ver)) {
				t.Fatalf("version %d of the %d-byte row reads %d bytes, %v", ver, n, len(cr.Rec), ok)
			}
		}
	}
	if got := s.Stats().Pruned.Load(); got != versions*int64(len(sizes)) {
		t.Fatalf("pruned %d versions, want %d", got, versions*len(sizes))
	}
	// Two big rows live and two in quarantine, plus the small-row chunks.
	if n := len(s.dir.bytes); n > 8 {
		t.Fatalf("%d byte chunks after %d versions of two big rows", n, versions)
	}
}

// heldBytes returns the arena bytes the store's chains hold, each version
// rounded up to whole granules; rows past bigRow count their own chunks.
func heldBytes(s *VersionStore) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, head := range eachChain(s) {
		for i := head; i != 0; i = s.dir.rec(i).next {
			if r := s.dir.rec(i); r.n != tombstone {
				n += int((r.n + granule - 1) / granule * granule)
			}
		}
	}
	return n
}

// Freed bytes serve rows of other lengths, and space rows no longer use
// goes back to the collector. 1 000 rows take 100 000 updates whose
// lengths drift from 8 bytes up to 2 KiB and back, so almost no freed
// range fits the next version of its row exactly; deleting nine rows in
// ten and inserting as many rows of a new length follows. Through all of
// it the arena stays within a fixed multiple of the bytes the chains hold,
// and deleting every row gives all but a few chunks back.
func TestArenaFollowsDriftingRowLengths(t *testing.T) {
	const rows, updates, bound = 1000, 100_000, 4
	var ts int64 = 1
	clock := func() int64 { return ts }
	s := NewVersionStore(nil, clock)
	rng := rand.New(rand.NewSource(1))
	rec := func(rid RID, ver, n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(int(rid)*31 + ver*7 + i)
		}
		return b
	}
	rids := make([]RID, rows)
	vers := make(map[RID]int, rows)
	lens := make(map[RID]int, rows)
	install := func(i, n int) {
		rids[i] = s.NewRID()
		vers[rids[i]], lens[rids[i]] = 0, n
		s.Install(rids[i], rec(rids[i], 0, n), 0, true)
	}
	worst := 0.0
	check := func(when string) {
		t.Helper()
		arena, held := arenaBytes(s), heldBytes(s)
		ratio := float64(arena) / float64(held+4*byteChunk)
		worst = max(worst, ratio)
		if ratio > bound {
			t.Fatalf("%s: arena %d bytes for %d held: over %d times the held bytes and 4 chunks", when, arena, held, bound)
		}
		for _, rid := range rids {
			if cr, ok := s.ReadAt(rid, CurrentSnapshot(0)); ok != (lens[rid] >= 0) || ok && !bytes.Equal(cr.Rec, rec(rid, vers[rid], lens[rid])) {
				t.Fatalf("%s: row %v reads %d bytes, %v", when, rid, len(cr.Rec), ok)
			}
		}
	}
	// pass runs two passes, so what the first cuts is reclaimed by the
	// second.
	pass := func() {
		for range 2 {
			ts++
			s.Prune(ts)
		}
	}

	for i := range rids {
		install(i, 8)
	}
	for u := 1; u <= updates; u++ {
		rid := rids[rng.Intn(rows)]
		n := 8 + 2040*min(u, updates-u)/(updates/2) + rng.Intn(16)
		ts++
		vers[rid], lens[rid] = u, n
		s.Push(rid, rec(rid, u, n), ts).SetCommit(ts)
		if wm, due := s.PruneDue(clock); due {
			s.Prune(wm)
			if u%(10*PruneBatch) == 0 {
				check(fmt.Sprintf("update %d", u))
			}
		}
	}
	check("drift")

	rng.Shuffle(rows, func(i, j int) { rids[i], rids[j] = rids[j], rids[i] })
	ts++
	for _, rid := range rids[rows/10:] {
		s.Tombstone(rid, ts).SetCommit(ts)
		lens[rid] = -1
	}
	pass()
	check("delete")
	for i := rows / 10; i < rows; i++ {
		install(i, 100)
	}
	check("insert")
	t.Logf("worst arena/(held+4 chunks) %.2f", worst)

	ts++
	for _, rid := range rids {
		s.Tombstone(rid, ts).SetCommit(ts)
	}
	pass()
	if got := arenaBytes(s); got > (1+compactSlack)*byteChunk {
		t.Fatalf("arena holds %d bytes with no row", got)
	}
}

// A transaction that rolls its insert back still reads the bytes it read
// before the Discard (an INSERT's undo decodes them for the index keys),
// and the quarantine keeps them from the next row of that length until
// the transaction ends: passes run meanwhile at the watermark its
// snapshot pins.
func TestQuarantineHoldsCutBytes(t *testing.T) {
	var ts int64 = 1
	s := NewVersionStore(nil, func() int64 { return ts })
	hot := s.NewRID()
	s.Install(hot, []byte("hot-0000"), 0, true)

	const self = 100
	snap := ts // the rolling-back transaction registers
	rid := s.NewRID()
	s.Install(rid, []byte("inserted"), self, false)
	cr, ok := s.ReadAt(rid, CurrentSnapshot(self))
	if !ok {
		t.Fatal("the inserting transaction does not see its row")
	}
	s.Discard(rid)
	for i := 1; i <= 3*PruneBatch; i++ {
		ts++
		s.Push(hot, []byte(fmt.Sprintf("hot-%04d", i)), ts).SetCommit(ts)
		s.Prune(min(snap, ts))
		if string(cr.Rec) != "inserted" {
			t.Fatalf("after %d updates the discarded row's bytes read %q", i, cr.Rec)
		}
	}
	// The transaction ends: the next pass frees the bytes and the next
	// update of that length takes them.
	ts++
	s.Prune(ts)
	ts++
	s.Push(hot, []byte("hot-last"), ts).SetCommit(ts)
	if string(cr.Rec) != "hot-last" {
		t.Fatalf("the freed range was not reused: it reads %q", cr.Rec)
	}
}

// A deferred removal a transaction took out (its update brought the key
// back) names a version a pass may cut meanwhile. When the transaction
// rolls back and restores it, the quarantine still holds that version, so
// the next pass reads its commit stamp and emits the removal.
func TestQuarantineKeepsTakenPendings(t *testing.T) {
	var ts int64 = 1
	s := NewVersionStore(nil, func() int64 { return ts })
	rid, other := s.NewRID(), s.NewRID()
	s.Install(rid, []byte("a"), 1, false).SetCommit(1)
	s.Install(other, []byte("o"), 1, false).SetCommit(1)
	ts = 2
	v1 := s.Push(rid, []byte("b"), 2)
	s.AddPending(rid, "ix", []byte("key-a"), v1)
	v1.SetCommit(2)
	ts = 3
	s.Push(rid, []byte("c"), 3).SetCommit(3)

	// The transaction brings key-a back, taking its removal.
	s.Push(rid, []byte("a again"), 100)
	p, ok := s.TakePending(rid, "ix", []byte("key-a"))
	if !ok {
		t.Fatal("no removal to take")
	}
	// Another writer's pass cuts v1, and its uncommitted writes take
	// whatever records that pass freed.
	s.Prune(3)
	s.Push(other, []byte("p"), 200)
	s.Push(other, []byte("q"), 200)
	// Rollback.
	s.RestorePending(rid, p)
	s.Pop(rid)
	ts = 4
	if w := s.Prune(4); workString(w) != "entry ix/key-a/1 by@2" {
		t.Fatalf("pass after the rollback emitted %q", workString(w))
	}
}
