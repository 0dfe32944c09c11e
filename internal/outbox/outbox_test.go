package outbox

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestEnqueueAndDrain(t *testing.T) {
	o := New(Config{})
	defer o.Close() //nolint:errcheck
	var ran atomic.Int64
	for i := 0; i < 50; i++ {
		if !o.TryEnqueue(Job{Kind: Persist, Priority: High, Label: "p", Do: func() error {
			ran.Add(1)
			return nil
		}}) {
			t.Fatalf("enqueue %d refused", i)
		}
	}
	if !o.Drain(2 * time.Second) {
		t.Fatal("drain timed out")
	}
	if ran.Load() != 50 {
		t.Fatalf("ran %d jobs, want 50", ran.Load())
	}
	st := o.Stats()
	if st.ByKind[Persist].Done != 50 || st.ByKind[Persist].Enqueued != 50 {
		t.Fatalf("stats: %+v", st.ByKind[Persist])
	}
}

// TestJobsOfAKindRunInOrder: one worker drains each kind, so a kind's jobs
// run one at a time in enqueue order.
func TestJobsOfAKindRunInOrder(t *testing.T) {
	o := New(Config{})
	defer o.Close() //nolint:errcheck
	var mu sync.Mutex
	var order []int
	var running atomic.Int64
	for i := 0; i < 50; i++ {
		o.TryEnqueue(Job{Kind: Persist, Priority: High, Label: "p", Do: func() error {
			if running.Add(1) != 1 {
				t.Error("two jobs of one kind ran at once")
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			running.Add(-1)
			return nil
		}})
	}
	if !o.Drain(2 * time.Second) {
		t.Fatal("drain timed out")
	}
	mu.Lock()
	defer mu.Unlock()
	for i, got := range order {
		if got != i {
			t.Fatalf("job %d ran at position %d: %v", got, i, order)
		}
	}
	if len(order) != 50 {
		t.Fatalf("ran %d jobs, want 50", len(order))
	}
}

func TestRetryBackoffThenSuccess(t *testing.T) {
	o := New(Config{BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond})
	defer o.Close() //nolint:errcheck
	var calls atomic.Int64
	o.TryEnqueue(Job{Kind: Mail, Label: "flaky", Do: func() error {
		if calls.Add(1) < 3 {
			return fmt.Errorf("transient")
		}
		return nil
	}})
	if !o.Drain(2 * time.Second) {
		t.Fatal("drain timed out")
	}
	st := o.Stats().ByKind[Mail]
	if calls.Load() != 3 || st.Done != 1 || st.Retries != 2 || st.DeadLetters != 0 {
		t.Fatalf("calls=%d stats=%+v", calls.Load(), st)
	}
}

func TestDeadLetterAfterMaxAttempts(t *testing.T) {
	o := New(Config{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond})
	defer o.Close() //nolint:errcheck
	o.TryEnqueue(Job{Kind: External, Label: "always-fails", Do: func() error {
		return fmt.Errorf("broken pipe")
	}})
	if !o.Drain(2 * time.Second) {
		t.Fatal("drain timed out")
	}
	st := o.Stats().ByKind[External]
	if st.DeadLetters != 1 || st.Done != 0 {
		t.Fatalf("stats: %+v", st)
	}
	dls := o.DeadLetters()
	if len(dls) != 1 || dls[0].Label != "always-fails" || dls[0].Attempts != 3 ||
		!strings.Contains(dls[0].Err, "broken pipe") {
		t.Fatalf("dead letters: %+v", dls)
	}
}

func TestAttemptTimeoutOnHungJob(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	o := New(Config{
		MaxAttempts:    2,
		AttemptTimeout: 20 * time.Millisecond,
		BaseBackoff:    time.Millisecond,
		MaxBackoff:     2 * time.Millisecond,
	})
	defer o.Close() //nolint:errcheck
	o.TryEnqueue(Job{Kind: External, Label: "hung", Do: func() error {
		<-release
		return nil
	}})
	if !o.Drain(2 * time.Second) {
		t.Fatal("drain timed out: hung job pinned the worker")
	}
	st := o.Stats().ByKind[External]
	if st.Timeouts != 2 || st.DeadLetters != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestShedWhenFull(t *testing.T) {
	block := make(chan struct{})
	o := New(Config{QueueSize: 8})
	var wg sync.WaitGroup
	wg.Add(1)
	// Pin the single worker so the queue backs up.
	o.TryEnqueue(Job{Kind: Mail, Label: "pin", Do: func() error {
		defer wg.Done()
		<-block
		return nil
	}})
	shedLow, shedHigh := 0, 0
	for i := 0; i < 50; i++ {
		if !o.TryEnqueue(Job{Kind: Mail, Priority: Low, Label: "low", Do: func() error { return nil }}) {
			shedLow++
		}
	}
	for i := 0; i < 50; i++ {
		if !o.TryEnqueue(Job{Kind: Mail, Priority: High, Label: "high", Do: func() error { return nil }}) {
			shedHigh++
		}
	}
	if shedLow == 0 || shedHigh == 0 {
		t.Fatalf("expected shedding on a full queue: low=%d high=%d", shedLow, shedHigh)
	}
	// Low-priority jobs hit the reserve before high-priority jobs hit the cap.
	if shedLow <= shedHigh-8 {
		t.Fatalf("low priority should shed at least as much: low=%d high=%d", shedLow, shedHigh)
	}
	if got := o.Stats().ByKind[Mail].Shed; got != int64(shedLow+shedHigh) {
		t.Fatalf("shed counter %d, want %d", got, shedLow+shedHigh)
	}
	close(block)
	wg.Wait()
	if err := o.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestCloseDrainsQueuedJobs(t *testing.T) {
	o := New(Config{})
	var ran atomic.Int64
	for i := 0; i < 20; i++ {
		o.TryEnqueue(Job{Kind: Persist, Label: "p", Do: func() error {
			time.Sleep(time.Millisecond)
			ran.Add(1)
			return nil
		}})
	}
	if err := o.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if ran.Load() != 20 {
		t.Fatalf("close returned before draining: ran %d/20", ran.Load())
	}
	if o.TryEnqueue(Job{Kind: Mail, Label: "late", Do: func() error { return nil }}) {
		t.Fatal("enqueue accepted after Close")
	}
}

func TestCloseAbandonsAfterDrainTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	o := New(Config{
		DrainTimeout:   30 * time.Millisecond,
		AttemptTimeout: 10 * time.Second, // per-attempt deadline won't save us
		MaxAttempts:    1,
	})
	for i := 0; i < 5; i++ {
		o.TryEnqueue(Job{Kind: External, Label: "hung", Do: func() error {
			<-release
			return nil
		}})
	}
	start := time.Now()
	err := o.Close()
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("close hung for %s", took)
	}
	if err == nil {
		t.Fatal("expected drain-timeout error")
	}
}

func TestKindIsolation(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	o := New(Config{AttemptTimeout: 10 * time.Second})
	defer o.Close() //nolint:errcheck
	// Hang the external worker…
	o.TryEnqueue(Job{Kind: External, Label: "hung", Do: func() error { <-release; return nil }})
	// …mail and persist must still flow.
	var ran atomic.Int64
	o.TryEnqueue(Job{Kind: Mail, Label: "m", Do: func() error { ran.Add(1); return nil }})
	o.TryEnqueue(Job{Kind: Persist, Label: "p", Do: func() error { ran.Add(1); return nil }})
	deadline := time.Now().Add(2 * time.Second)
	for ran.Load() != 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if ran.Load() != 2 {
		t.Fatalf("mail/persist starved by hung external: ran=%d", ran.Load())
	}
}
