package storage

import (
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
	for rid, c := range eachChain(s) {
		kept := c.pend[:0]
		for _, p := range c.pend {
			if ts := p.By.commit.Load(); ts != 0 && ts <= watermark {
				entries = append(entries, p)
			} else {
				kept = append(kept, p)
			}
		}
		c.pend = kept

		head := c.head.Load()
		if head == nil {
			continue
		}
		if ts := head.commit.Load(); head.Tombstone() && ts != 0 && ts <= watermark {
			entries = append(entries, c.pend...)
			c.pend = nil
			pruned += int64(chainLen(head))
			s.drop(rid)
			continue
		}
		for v := head; v != nil; v = v.next.Load() {
			if ts := v.commit.Load(); ts != 0 && ts <= watermark {
				if tail := v.next.Load(); tail != nil {
					pruned += int64(chainLen(tail))
					v.next.Store(nil)
				}
				break
			}
		}
	}
	s.mu.Unlock()
	if pruned > 0 {
		s.stats.Pruned.Add(pruned)
		s.stats.Retained.Add(-pruned)
	}
	return entries
}

// eachChain returns the store's chains keyed by RID, a copy of the slot
// array without its empty slots. The caller holds s.mu.
func eachChain(s *VersionStore) map[RID]*chain {
	out := make(map[RID]*chain, s.live)
	for i, c := range s.chains {
		if c != nil {
			out[s.base+RID(i)] = c
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
	for rid, c := range eachChain(s) {
		var b strings.Builder
		fmt.Fprintf(&b, "%v:", rid)
		for v := c.head.Load(); v != nil; v = v.next.Load() {
			fmt.Fprintf(&b, " [%q t%d c%d]", v.rec, v.txnID, v.CommitTS())
		}
		var pend []string
		for _, p := range c.pend {
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
	in := make(map[RID]bool, len(s.garbage))
	for _, rid := range s.garbage {
		if in[rid] {
			t.Fatalf("chain %v is in the garbage set twice", rid)
		}
		in[rid] = true
		if c := s.slot(rid); pruned && (c == nil ||
			c.head.Load().next.Load() == nil && !c.head.Load().Tombstone() && len(c.pend) == 0) {
			t.Fatalf("chain %v survived a pass in the garbage set with nothing to collect", rid)
		}
	}
	for rid, c := range eachChain(s) {
		head := c.head.Load()
		if !c.dirty && (head.next.Load() != nil || head.Tombstone() || len(c.pend) > 0) {
			t.Fatalf("chain %v can hold garbage but is not marked", rid)
		}
		if c.dirty != in[rid] {
			t.Fatalf("chain %v: dirty=%v, in the garbage set=%v", rid, c.dirty, in[rid])
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
	s := NewVersionStore(stats)
	const rows, steps, self = 24, 600, 7

	// open is the uncommitted work of the one in-flight writer (strict 2PL:
	// one per table) — its versions to stamp on commit and its undo actions
	// to run, newest first, on rollback.
	var openVers []*Version
	var openUndo []func()
	cur := make(map[int]RID) // row → its RID while the row has a chain
	var installed []RID      // every RID installed, in install order
	var ts, wm int64
	var trace []string

	headOf := func(rid RID) *Version {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return s.slot(rid).head.Load()
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
		case headOf(rid).Tombstone():
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
// writers touched since the last pass.
func sparseStore(n, dirty int) (*VersionStore, *VersionStats) {
	stats := &VersionStats{}
	s := NewVersionStore(stats)
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
	s, stats := sparseStore(n, dirty)
	ref, refStats := sparseStore(n, dirty)

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
	s := NewVersionStore(stats)
	rid := s.NewRID()
	s.Install(rid, []byte("base"), 1, false).SetCommit(1)
	const pinned = 1
	ts := int64(1)
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
	s := NewVersionStore(stats)
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
	s, _ := sparseStore(n, dirty)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts := int64(i + 2)
		benchWork = s.Prune(ts)
		b.StopTimer()
		touchSparse(s, n, dirty, ts+1)
		b.StartTimer()
	}
}

// TRUNCATE moves the slot array past every RID handed out: the next insert
// does not reserve a slot for each dropped row.
func TestResetDoesNotReserveDroppedRIDs(t *testing.T) {
	s := NewVersionStore(nil)
	for i := 0; i < 10_000; i++ {
		s.Install(s.NewRID(), []byte("row"), 0, true)
	}
	s.Reset()
	rid := s.NewRID()
	s.Install(rid, []byte("after"), 0, true)
	if n := len(s.chains); n > 1 {
		t.Fatalf("%d slots after TRUNCATE and one insert", n)
	}
	if cr, ok := s.ReadAt(rid, CurrentSnapshot(0)); !ok || string(cr.Rec) != "after" {
		t.Fatalf("row %v after TRUNCATE: %q, %v", rid, cr.Rec, ok)
	}
	if got := s.SnapScan(CurrentSnapshot(0)); len(got) != 1 || got[0].Rid != rid {
		t.Fatalf("scan after TRUNCATE: %v", got)
	}
}

// A table that deletes its oldest rows (superseded snapshots) keeps no
// slot for them once they are pruned; rows behind an interior hole keep
// their slots and resolve.
func TestLeadingHolesTrimmed(t *testing.T) {
	s := NewVersionStore(nil)
	const n, oldest = 100, 60
	for i := 0; i < n; i++ {
		s.Install(s.NewRID(), []byte("row"), 0, true)
	}
	for rid := RID(1); rid <= oldest; rid++ {
		s.Tombstone(rid, 0).SetCommit(1)
	}
	s.Tombstone(oldest+5, 0).SetCommit(1) // an interior hole
	s.Prune(1)
	if s.base != oldest+1 || len(s.chains) != n-oldest {
		t.Fatalf("base %v, %d slots after pruning the %d oldest of %d rows", s.base, len(s.chains), oldest, n)
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
