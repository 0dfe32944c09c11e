package lock

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sqlcm/internal/storage"
)

func res(name string) Resource { return TableResource(name) }

func TestIntentExclusiveLocksCoexist(t *testing.T) {
	m := NewManager(time.Second)
	if err := m.Acquire(1, res("t"), IntentExclusive); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Acquire(2, res("t"), IntentExclusive) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("IX lock blocked on IX lock")
	}
}

func TestExclusiveBlocksAndReleases(t *testing.T) {
	m := NewManager(5 * time.Second)
	if err := m.Acquire(1, res("t"), Exclusive); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- m.Acquire(2, res("t"), Exclusive) }()
	select {
	case <-got:
		t.Fatal("X lock granted while held")
	case <-time.After(50 * time.Millisecond):
	}
	m.ReleaseAll(1)
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter not woken on release")
	}
}

func TestReacquireIsNoop(t *testing.T) {
	m := NewManager(time.Second)
	if err := m.Acquire(1, res("t"), Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(1, res("t"), Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(1, res("t"), IntentExclusive); err != nil {
		t.Fatal(err) // X covers IX
	}
	if got := len(m.Held(1)); got != 1 {
		t.Fatalf("held = %d", got)
	}
}

func TestUpgrade(t *testing.T) {
	m := NewManager(time.Second)
	if err := m.Acquire(1, res("t"), IntentExclusive); err != nil {
		t.Fatal(err)
	}
	// Sole holder upgrades immediately.
	if err := m.Acquire(1, res("t"), Exclusive); err != nil {
		t.Fatal(err)
	}
	if m.Held(1)[res("t")] != Exclusive {
		t.Fatal("upgrade did not take effect")
	}
}

func TestUpgradeWaitsForOtherSharers(t *testing.T) {
	m := NewManager(5 * time.Second)
	if err := m.Acquire(1, res("t"), IntentExclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, res("t"), IntentExclusive); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- m.Acquire(1, res("t"), Exclusive) }()
	select {
	case <-got:
		t.Fatal("upgrade granted while another IX holder holds")
	case <-time.After(50 * time.Millisecond):
	}
	m.ReleaseAll(2)
	if err := <-got; err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	m := NewManager(0) // no timeout: detection must catch it
	if err := m.Acquire(1, res("a"), Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, res("b"), Exclusive); err != nil {
		t.Fatal(err)
	}
	step := make(chan error, 1)
	go func() { step <- m.Acquire(1, res("b"), Exclusive) }()
	time.Sleep(50 * time.Millisecond) // let txn 1 enqueue
	err := m.Acquire(2, res("a"), Exclusive)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("expected deadlock, got %v", err)
	}
	// Victim aborts; txn1 proceeds after txn2 releases.
	m.ReleaseAll(2)
	if err := <-step; err != nil {
		t.Fatal(err)
	}
}

func TestUpgradeDeadlock(t *testing.T) {
	m := NewManager(0)
	if err := m.Acquire(1, res("t"), IntentExclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, res("t"), IntentExclusive); err != nil {
		t.Fatal(err)
	}
	first := make(chan error, 1)
	go func() { first <- m.Acquire(1, res("t"), Exclusive) }()
	time.Sleep(50 * time.Millisecond)
	err := m.Acquire(2, res("t"), Exclusive)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("expected upgrade deadlock, got %v", err)
	}
	m.ReleaseAll(2)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
}

func TestTimeout(t *testing.T) {
	m := NewManager(80 * time.Millisecond)
	if err := m.Acquire(1, res("t"), Exclusive); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := m.Acquire(2, res("t"), Exclusive)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("expected timeout, got %v", err)
	}
	if time.Since(start) < 50*time.Millisecond {
		t.Fatal("timeout fired too early")
	}
}

func TestCancelWakesWaiter(t *testing.T) {
	m := NewManager(0)
	if err := m.Acquire(1, res("t"), Exclusive); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- m.Acquire(2, res("t"), Exclusive) }()
	time.Sleep(50 * time.Millisecond)
	m.Cancel(2)
	select {
	case err := <-got:
		if !errors.Is(err, ErrCancelled) {
			t.Fatalf("expected cancelled, got %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancel did not wake waiter")
	}
}

func TestFIFOFairnessNoStarvation(t *testing.T) {
	// X waiter queued before later IX requests must win first.
	m := NewManager(5 * time.Second)
	if err := m.Acquire(1, res("t"), IntentExclusive); err != nil {
		t.Fatal(err)
	}
	var order []int
	var mu sync.Mutex
	record := func(id int) {
		mu.Lock()
		order = append(order, id)
		mu.Unlock()
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := m.Acquire(2, res("t"), Exclusive); err != nil {
			t.Error(err)
			return
		}
		record(2)
		m.ReleaseAll(2)
	}()
	time.Sleep(50 * time.Millisecond)
	go func() {
		defer wg.Done()
		if err := m.Acquire(3, res("t"), IntentExclusive); err != nil {
			t.Error(err)
			return
		}
		record(3)
		m.ReleaseAll(3)
	}()
	time.Sleep(50 * time.Millisecond)
	m.ReleaseAll(1)
	wg.Wait()
	if len(order) != 2 || order[0] != 2 {
		t.Fatalf("grant order = %v, want X (txn 2) first", order)
	}
}

type recordingNotifier struct {
	mu        sync.Mutex
	blocked   []TxnID
	unblocked []TxnID
	released  []WaiterInfo
	holder    TxnID
}

func (r *recordingNotifier) Blocked(w TxnID, res Resource, holders []TxnID) {
	r.mu.Lock()
	r.blocked = append(r.blocked, w)
	r.mu.Unlock()
}

func (r *recordingNotifier) Unblocked(w TxnID, res Resource, d time.Duration) {
	r.mu.Lock()
	r.unblocked = append(r.unblocked, w)
	r.mu.Unlock()
}

func (r *recordingNotifier) ReleasedWithWaiters(h TxnID, res Resource, ws []WaiterInfo) {
	r.mu.Lock()
	r.holder = h
	r.released = append(r.released, ws...)
	r.mu.Unlock()
}

func TestNotifications(t *testing.T) {
	m := NewManager(time.Second)
	n := &recordingNotifier{}
	m.SetNotifier(n)
	if err := m.Acquire(1, res("t"), Exclusive); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Acquire(2, res("t"), Exclusive) }()
	time.Sleep(60 * time.Millisecond)
	m.ReleaseAll(1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.blocked) != 1 || n.blocked[0] != 2 {
		t.Fatalf("blocked events: %v", n.blocked)
	}
	if len(n.unblocked) != 1 || n.unblocked[0] != 2 {
		t.Fatalf("unblocked events: %v", n.unblocked)
	}
	if n.holder != 1 || len(n.released) != 1 || n.released[0].Txn != 2 {
		t.Fatalf("release events: holder=%d %v", n.holder, n.released)
	}
	if n.released[0].Waited < 40*time.Millisecond {
		t.Fatalf("waited = %v, expected >= 40ms", n.released[0].Waited)
	}
}

func TestBlockSnapshot(t *testing.T) {
	m := NewManager(time.Second)
	if err := m.Acquire(1, res("t"), Exclusive); err != nil {
		t.Fatal(err)
	}
	// The ReleaseAll below grants the waiter, which ends the goroutine.
	go m.Acquire(2, res("t"), IntentExclusive) //nolint:errcheck
	time.Sleep(50 * time.Millisecond)
	pairs := m.BlockSnapshot()
	if len(pairs) != 1 || pairs[0].Blocker != 1 || pairs[0].Blocked != 2 {
		t.Fatalf("snapshot: %+v", pairs)
	}
	m.ReleaseAll(1)
	time.Sleep(20 * time.Millisecond)
	if got := m.BlockSnapshot(); len(got) != 0 {
		t.Fatalf("snapshot after release: %+v", got)
	}
	m.ReleaseAll(2)
}

func TestRowAndTableResourcesDistinct(t *testing.T) {
	m := NewManager(time.Second)
	r1 := RowResource("t", storage.RID(2))
	r2 := RowResource("t", storage.RID(3))
	if err := m.Acquire(1, r1, Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, r2, Exclusive); err != nil {
		t.Fatal(err) // different rows do not conflict
	}
	if err := m.Acquire(2, TableResource("t"), IntentExclusive); err != nil {
		t.Fatal(err) // table resource is separate from row resources
	}
}

func TestConcurrentStress(t *testing.T) {
	m := NewManager(2 * time.Second)
	const goroutines = 16
	const iters = 200
	var deadlocks atomic.Int64
	var txnSeq atomic.Int64
	var wg sync.WaitGroup
	resources := []Resource{res("a"), res("b"), res("c")}
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				txn := TxnID(txnSeq.Add(1))
				mode := IntentExclusive
				if (g+i)%3 == 0 {
					mode = Exclusive
				}
				r1 := resources[(g+i)%3]
				r2 := resources[(g+i+1)%3]
				if err := m.Acquire(txn, r1, mode); err != nil {
					deadlocks.Add(1)
					m.ReleaseAll(txn)
					continue
				}
				if err := m.Acquire(txn, r2, mode); err != nil {
					deadlocks.Add(1)
				}
				m.ReleaseAll(txn)
			}
		}(g)
	}
	doneCh := make(chan struct{})
	go func() { wg.Wait(); close(doneCh) }()
	select {
	case <-doneCh:
	case <-time.After(30 * time.Second):
		t.Fatal("stress test hung (lost wakeup or undetected deadlock)")
	}
	if m.WaitingCount() != 0 {
		t.Fatalf("waiters leaked: %d", m.WaitingCount())
	}
}

// waitQueued blocks until n requests wait in m's queues.
func waitQueued(t *testing.T, m *Manager, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); m.WaitingCount() < n; {
		if time.Now().After(deadline) {
			t.Fatalf("%d waiters queued, want %d", m.WaitingCount(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCancelledWaiterUnblocksCompatibleWaiters: an IX request queued behind
// an X waiter is granted as soon as that waiter leaves, not when the
// holders release.
func TestCancelledWaiterUnblocksCompatibleWaiters(t *testing.T) {
	m := NewManager(0)
	if err := m.Acquire(1, res("t"), IntentExclusive); err != nil {
		t.Fatal(err)
	}
	x := make(chan error, 1)
	go func() { x <- m.Acquire(2, res("t"), Exclusive) }()
	waitQueued(t, m, 1)
	ix := make(chan error, 1)
	go func() { ix <- m.Acquire(3, res("t"), IntentExclusive) }()
	waitQueued(t, m, 2)
	m.Cancel(2)
	if err := <-x; !errors.Is(err, ErrCancelled) {
		t.Fatalf("X waiter: %v, want cancelled", err)
	}
	select {
	case err := <-ix:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("IX waiter still queued after the X ahead of it was cancelled")
	}
	m.ReleaseAll(1)
	m.ReleaseAll(3)
}

// TestNoDeadlockThroughCompatibleHolder: a waiter has no wait-for edge to a
// holder whose mode does not block it, so a cycle that only closes through
// such a holder is not a deadlock.
func TestNoDeadlockThroughCompatibleHolder(t *testing.T) {
	m := NewManager(0)
	row := RowResource("t", storage.RID(7))
	if err := m.Acquire(1, res("t"), IntentExclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, row, Exclusive); err != nil {
		t.Fatal(err)
	}
	x := make(chan error, 1)
	go func() { x <- m.Acquire(3, res("t"), Exclusive) }()
	waitQueued(t, m, 1)
	ix := make(chan error, 1)
	go func() { ix <- m.Acquire(2, res("t"), IntentExclusive) }() // FIFO: behind txn 3
	waitQueued(t, m, 2)
	m.mu.Lock()
	edges := m.waitsFor[2]
	falseEdge, fifoEdge := edges[1], edges[3]
	m.mu.Unlock()
	if falseEdge || !fifoEdge {
		t.Fatalf("txn 2 waits for %v, want txn 3 only", edges)
	}
	m.Cancel(3)
	if err := <-x; !errors.Is(err, ErrCancelled) {
		t.Fatalf("X waiter: %v, want cancelled", err)
	}
	// Txn 1 now waits for txn 2's row; txn 2 waits for nobody.
	got := make(chan error, 1)
	go func() { got <- m.Acquire(1, row, Exclusive) }()
	if err := <-ix; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(2)
	if err := <-got; err != nil {
		t.Fatalf("row request after the cancel: %v", err)
	}
	m.ReleaseAll(1)
}
