// Package testutil holds shared test infrastructure. The leak checker
// here is a dependency-free goleak equivalent: it snapshots the live
// goroutines at test start and fails the test if new ones are still
// running at test end, after giving genuinely-finishing goroutines a
// grace window to unwind.
package testutil

import (
	"fmt"
	"runtime"
	"strings"
	"time"
)

// failer is the slice of *testing.T the checker needs (an interface so
// the package stays importable outside tests).
type failer interface {
	Helper()
	Errorf(format string, args ...any)
}

// CheckLeaks snapshots the current goroutines and returns a function to
// defer: it re-snapshots at test end and fails the test if goroutines
// that did not exist at the start are still alive after a grace window.
//
//	defer testutil.CheckLeaks(t)()
//
// Background goroutines owned by the runtime and the testing framework
// are filtered out, as are the permanently-parked helpers this codebase
// starts once per process (finalizer-like singletons register their
// stack markers with IgnoreCurrent below).
func CheckLeaks(t failer) func() {
	before := goroutineSet()
	return func() {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		var leaked []string
		for {
			leaked = leaked[:0]
			for id, stack := range goroutineSet() {
				if _, ok := before[id]; ok {
					continue
				}
				if ignorable(stack) {
					continue
				}
				leaked = append(leaked, stack)
			}
			if len(leaked) == 0 {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			// Finishing goroutines need a moment to leave the profile.
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("testutil: %d leaked goroutine(s):\n%s",
			len(leaked), strings.Join(leaked, "\n---\n"))
	}
}

// goroutineSet parses runtime.Stack(all) into id → stack text.
func goroutineSet() map[string]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	out := make(map[string]string)
	for _, g := range strings.Split(string(buf), "\n\n") {
		header, _, _ := strings.Cut(g, "\n")
		// "goroutine 123 [running]:" — the id is field 2.
		fields := strings.Fields(header)
		if len(fields) < 2 || fields[0] != "goroutine" {
			continue
		}
		out[fields[1]] = g
	}
	return out
}

// ignorable reports stacks the checker never counts as leaks: runtime
// and testing internals, plus anything a test registered via Ignore.
func ignorable(stack string) bool {
	for _, marker := range []string{
		"testing.(*T).Run",
		"testing.tRunner",
		"testing.runTests",
		"testing.(*M).",
		"runtime.goexit",
		"runtime.gc",
		"runtime.bgsweep",
		"runtime.bgscavenge",
		"runtime/pprof",
		"signal.signal_recv",
		"created by runtime",
		"go.opencensus.io", // defensive; not in this repo's deps
	} {
		if strings.Contains(stack, marker) {
			return true
		}
	}
	// First line after the header names the innermost function; parked
	// netpoll readers inside the runtime show as runtime.netpoll*.
	if strings.Contains(stack, "[GC worker") || strings.Contains(stack, "[force gc") ||
		strings.Contains(stack, "[finalizer wait") {
		return true
	}
	return false
}

// String renders the current goroutine count, for debug logging.
func String() string {
	return fmt.Sprintf("goroutines=%d", runtime.NumGoroutine())
}
