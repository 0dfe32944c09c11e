package lockcheck

import (
	"sync"
	"testing"
)

// The smoke test runs in both builds: the wrappers must behave as plain
// mutexes whatever the tag says.
func TestWrappersAreUsableMutexes(t *testing.T) {
	var m Mutex
	m.SetClass("smoke.m")
	var rw RWMutex
	rw.SetClass("smoke.rw")

	// Each counter lives under exactly one wrapper: n under m, r under rw
	// (written under the write side, read under the read side).
	n, r := 0, 0
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				m.Lock()
				n++
				m.Unlock()
				rw.Lock()
				r++
				rw.Unlock()
				rw.RLock()
				_ = r
				rw.RUnlock()
			}
		}()
	}
	wg.Wait()
	m.Lock()
	if n != 800 {
		t.Fatalf("n = %d, want 800", n)
	}
	m.Unlock()
	rw.RLock()
	if r != 800 {
		t.Fatalf("r = %d, want 800", r)
	}
	rw.RUnlock()

	if m.TryLock() {
		m.Unlock()
	}
	ResetForTest()
}
