package faults

import (
	"errors"
	"testing"
	"time"

	"sqlcm/internal/sqltypes"
)

type recordingPersister struct{ calls int }

func (r *recordingPersister) Persist(string, []string, []sqltypes.Kind, []sqltypes.Value) error {
	r.calls++
	return nil
}

func TestFlakyPersisterModes(t *testing.T) {
	inner := &recordingPersister{}
	p := &FlakyPersister{Inner: inner}
	ok := func() error { return p.Persist("t", nil, nil, nil) }

	p.FailNext(2)
	for i := 0; i < 2; i++ {
		if err := ok(); !errors.Is(err, ErrInjected) {
			t.Fatalf("call %d: %v, want injected", i, err)
		}
	}
	if err := ok(); err != nil {
		t.Fatalf("after transient outage: %v", err)
	}

	p.FailCallsAfter(2)
	for i := 0; i < 2; i++ {
		if err := ok(); err != nil {
			t.Fatalf("pass %d: %v", i, err)
		}
	}
	if err := ok(); !errors.Is(err, ErrInjected) {
		t.Fatalf("after pass budget: %v, want injected", err)
	}
	p.Reset()

	p.Break(true)
	if err := ok(); !errors.Is(err, ErrInjected) {
		t.Fatalf("broken: %v, want injected", err)
	}
	p.Break(false)
	if err := ok(); err != nil {
		t.Fatalf("healed: %v", err)
	}
	if inner.calls != 4 || p.Attempts.Load() != 8 || p.Failures.Load() != 4 {
		t.Fatalf("inner=%d attempts=%d failures=%d", inner.calls, p.Attempts.Load(), p.Failures.Load())
	}
}

func TestHungRunnerReleases(t *testing.T) {
	r := &HungRunner{}
	r.Hang()
	done := make(chan error, 1)
	go func() { done <- r.Run("cmd") }()
	select {
	case <-done:
		t.Fatal("hung run returned before release")
	case <-time.After(20 * time.Millisecond):
	}
	if r.Started.Load() != 1 || r.Finished.Load() != 0 {
		t.Fatalf("started=%d finished=%d", r.Started.Load(), r.Finished.Load())
	}
	r.Release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Released: future runs return immediately.
	if err := r.Run("cmd2"); err != nil {
		t.Fatal(err)
	}
	if got := r.Commands(); len(got) != 2 {
		t.Fatalf("commands: %v", got)
	}
}
