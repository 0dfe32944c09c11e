package event

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sqlcm/internal/engine"
	"sqlcm/internal/lat"
	"sqlcm/internal/monitor"
	"sqlcm/internal/rules"
	"sqlcm/internal/sqltypes"
)

// recordSink counts dispatches and simulates per-event rule interest.
type recordSink struct {
	dispatched atomic.Int64
	listening  map[monitor.Event]bool
}

func (s *recordSink) Dispatch(ev monitor.Event, objs map[string]monitor.Object) {
	s.dispatched.Add(1)
}

func (s *recordSink) HasRulesFor(ev monitor.Event) bool { return s.listening[ev] }

func (s *recordSink) HasAnyRules() bool { return len(s.listening) > 0 }

func TestBusCountsAndForwards(t *testing.T) {
	sink := &recordSink{listening: map[monitor.Event]bool{monitor.EvQueryCommit: true}}
	b := NewBus(sink)

	if b.Total() != 0 || b.Count(monitor.EvQueryCommit) != 0 {
		t.Fatal("fresh bus has counts")
	}
	for i := 0; i < 3; i++ {
		b.Dispatch(monitor.EvQueryCommit, nil)
	}
	b.Dispatch(monitor.EvTxnCommit, nil)

	if got := b.Total(); got != 4 {
		t.Errorf("Total = %d, want 4", got)
	}
	if got := b.Count(monitor.EvQueryCommit); got != 3 {
		t.Errorf("Count(Query.Commit) = %d, want 3", got)
	}
	if got := b.Count(monitor.EvTxnCommit); got != 1 {
		t.Errorf("Count(Transaction.Commit) = %d, want 1", got)
	}
	if got := sink.dispatched.Load(); got != 4 {
		t.Errorf("sink saw %d dispatches, want 4", got)
	}
	counts := b.Counts()
	if len(counts) != 2 || counts["Query.Commit"] != 3 || counts["Transaction.Commit"] != 1 {
		t.Errorf("Counts() = %v", counts)
	}
	// Events never dispatched are absent from the snapshot but countable.
	if got := b.Count(monitor.EvQueryStart); got != 0 {
		t.Errorf("Count(Query.Start) = %d, want 0", got)
	}
	// An event outside the schema is still forwarded and totalled.
	b.Dispatch(monitor.Event{Class: "Nope", Name: "Nope"}, nil)
	if got := b.Total(); got != 5 {
		t.Errorf("Total after unknown event = %d, want 5", got)
	}
	if got := b.Count(monitor.Event{Class: "Nope", Name: "Nope"}); got != 0 {
		t.Errorf("unknown event count = %d, want 0", got)
	}
}

func TestBusInterestDelegates(t *testing.T) {
	sink := &recordSink{listening: map[monitor.Event]bool{monitor.EvQueryBlocked: true}}
	b := NewBus(sink)
	if !b.Interested(monitor.EvQueryBlocked) {
		t.Error("Interested(Query.Blocked) = false")
	}
	if b.Interested(monitor.EvQueryStart) {
		t.Error("Interested(Query.Start) = true")
	}
	if !b.Active() {
		t.Error("Active = false")
	}
	empty := NewBus(&recordSink{listening: map[monitor.Event]bool{}})
	if empty.Active() {
		t.Error("empty sink Active = true")
	}
}

// TestBusConcurrentDispatch hammers the bus from many goroutines and
// checks that no count is lost (run under -race in the CI race tier).
func TestBusConcurrentDispatch(t *testing.T) {
	sink := &recordSink{listening: map[monitor.Event]bool{}}
	b := NewBus(sink)
	events := monitor.AllEvents()
	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				b.Dispatch(events[(g+i)%len(events)], nil)
			}
		}(g)
	}
	wg.Wait()
	if got := b.Total(); got != goroutines*perG {
		t.Errorf("Total = %d, want %d", got, goroutines*perG)
	}
	var sum int64
	for _, ev := range events {
		sum += b.Count(ev)
	}
	if sum != goroutines*perG {
		t.Errorf("per-event counts sum to %d, want %d", sum, goroutines*perG)
	}
	if got := sink.dispatched.Load(); got != goroutines*perG {
		t.Errorf("sink saw %d dispatches, want %d", got, goroutines*perG)
	}
}

// nopEnv is a rules.Env whose capabilities do nothing.
type nopEnv struct{}

func (nopEnv) LAT(string) (*lat.Table, bool) { return nil, false }
func (nopEnv) Persist(string, []string, []sqltypes.Kind, []sqltypes.Value) error {
	return nil
}
func (nopEnv) SendMail(string, string) error             { return nil }
func (nopEnv) RunExternal(string) error                  { return nil }
func (nopEnv) CancelQuery(int64) bool                    { return false }
func (nopEnv) SetTimer(string, time.Duration, int) error { return nil }
func (nopEnv) ActiveQueryObjects() []monitor.Object      { return nil }
func (nopEnv) LATVersion() uint64                        { return 0 }
func (nopEnv) BlockPairObjects() [][2]monitor.Object     { return nil }

// TestPooledObjectsStayPerDispatch dispatches Query.Commit through the
// hooks from 8 goroutines into a rule whose action counts the Query object
// it finds in its context. The hooks lend every dispatch a pooled objects
// map and the rule engine a pooled context, so handing one goroutine's
// map or context to another (or reusing one uncleared) shows up as a
// statement counted twice, never, or next to a stale object. Run under
// -race in the race tier.
func TestPooledObjectsStayPerDispatch(t *testing.T) {
	const goroutines, perG = 8, 2000
	var counts [goroutines * perG]atomic.Int32
	var bad atomic.Int64
	re := rules.NewEngine(nopEnv{})
	if err := re.AddRule(&rules.Rule{
		Name: "own", Event: monitor.EvQueryCommit,
		Actions: []rules.Action{&rules.FuncAction{Fn: func(_ rules.Env, ctx *rules.Ctx) error {
			runtime.Gosched() // let other dispatches in while this one holds its map
			obj, ok := ctx.Objects[monitor.ClassQuery].(*monitor.QueryObject)
			if !ok || len(ctx.Objects) != 1 || ctx.Primary != obj {
				bad.Add(1)
				return nil
			}
			counts[obj.Info.ID].Add(1)
			return nil
		}}},
	}); err != nil {
		t.Fatal(err)
	}
	h := NewHooks(NewBus(re), monitor.NewSigCache(), monitor.NewTxnTracker())
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g * perG; i < (g+1)*perG; i++ {
				h.QueryCommit(&engine.QueryInfo{ID: int64(i)}, time.Millisecond)
				if n := counts[i].Load(); n != 1 {
					t.Errorf("statement %d: its action saw its own object %d times, want 1", i, n)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Errorf("%d dispatches saw a context other than their own Query object alone", n)
	}
}
