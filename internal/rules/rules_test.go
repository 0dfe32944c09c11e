package rules

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"sqlcm/internal/lat"
	"sqlcm/internal/monitor"
	"sqlcm/internal/sqltypes"
)

// fakeObj is a map-backed monitored object.
type fakeObj struct {
	class string
	attrs map[string]sqltypes.Value
}

func (f *fakeObj) Class() string { return f.class }

func (f *fakeObj) Get(attr string) (sqltypes.Value, bool) {
	v, ok := f.attrs[attr]
	return v, ok
}

func queryObj(id int64, sig string, dur float64) *fakeObj {
	return &fakeObj{class: monitor.ClassQuery, attrs: map[string]sqltypes.Value{
		"ID":                sqltypes.NewInt(id),
		"Logical_Signature": sqltypes.NewString(sig),
		"Duration":          sqltypes.NewFloat(dur),
		"Query_Text":        sqltypes.NewString("SELECT " + sig),
	}}
}

// fakeEnv records action effects.
type fakeEnv struct {
	mu        sync.Mutex
	lats      map[string]*lat.Table
	persisted []string
	mails     []string
	commands  []string
	cancelled []int64
	timerSets []string
	queries   []monitor.Object
	pairs     [][2]monitor.Object
}

func newFakeEnv() *fakeEnv { return &fakeEnv{lats: map[string]*lat.Table{}} }

func (f *fakeEnv) LAT(name string) (*lat.Table, bool) {
	t, ok := f.lats[name]
	return t, ok
}

func (f *fakeEnv) Persist(table string, cols []string, kinds []sqltypes.Kind, row []sqltypes.Value) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	vals := make([]string, len(row))
	for i, v := range row {
		vals[i] = v.String()
	}
	f.persisted = append(f.persisted, table+":"+strings.Join(vals, ","))
	return nil
}

func (f *fakeEnv) SendMail(addr, body string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.mails = append(f.mails, addr+"|"+body)
	return nil
}

func (f *fakeEnv) RunExternal(cmd string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.commands = append(f.commands, cmd)
	return nil
}

func (f *fakeEnv) CancelQuery(id int64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cancelled = append(f.cancelled, id)
	return true
}

func (f *fakeEnv) SetTimer(name string, period time.Duration, count int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.timerSets = append(f.timerSets, fmt.Sprintf("%s/%s/%d", name, period, count))
	return nil
}

func (f *fakeEnv) ActiveQueryObjects() []monitor.Object { return f.queries }

func (f *fakeEnv) BlockPairObjects() [][2]monitor.Object { return f.pairs }

func dispatchQuery(e *Engine, obj monitor.Object) {
	e.Dispatch(monitor.EvQueryCommit, map[string]monitor.Object{monitor.ClassQuery: obj})
}

func mustCond(t *testing.T, src string) interface{ String() string } {
	t.Helper()
	c, err := ParseCondition(src)
	if err != nil {
		t.Fatalf("cond %q: %v", src, err)
	}
	return c
}

func TestSimpleRuleFiresOnCondition(t *testing.T) {
	env := newFakeEnv()
	e := NewEngine(env)
	cond, _ := ParseCondition("Query.Duration > 100")
	err := e.AddRule(&Rule{
		Name:      "slow",
		Event:     monitor.EvQueryCommit,
		Condition: cond,
		Actions:   []Action{&PersistAction{Table: "slow_queries", Attrs: []string{"ID", "Query_Text", "Duration"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	dispatchQuery(e, queryObj(1, "a", 50))
	dispatchQuery(e, queryObj(2, "a", 150))
	if len(env.persisted) != 1 || !strings.Contains(env.persisted[0], "SELECT a") {
		t.Fatalf("persisted: %v", env.persisted)
	}
	st := e.Stats()
	if st.Evaluations != 2 || st.Fired != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestUnqualifiedAttrsUsePrimary(t *testing.T) {
	env := newFakeEnv()
	e := NewEngine(env)
	cond, _ := ParseCondition("Duration > 10")
	e.AddRule(&Rule{ //nolint:errcheck
		Name: "r", Event: monitor.EvQueryCommit, Condition: cond,
		Actions: []Action{&PersistAction{Table: "t", Attrs: []string{"ID"}}},
	})
	dispatchQuery(e, queryObj(7, "x", 20))
	if len(env.persisted) != 1 {
		t.Fatalf("persisted: %v", env.persisted)
	}
}

func TestOutlierRuleWithLAT(t *testing.T) {
	// Example 1 from the paper: LAT of average duration per signature;
	// rule fires when an instance runs 5x slower than its average.
	env := newFakeEnv()
	table, err := lat.New(lat.Spec{
		Name:    "Duration_LAT",
		GroupBy: []string{"Logical_Signature"},
		Aggs:    []lat.AggCol{{Func: lat.Avg, Attr: "Duration", Name: "Avg_Duration"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	env.lats["Duration_LAT"] = table
	e := NewEngine(env)

	cond, err := ParseCondition("Query.Duration > 5 * Duration_LAT.Avg_Duration")
	if err != nil {
		t.Fatal(err)
	}
	e.AddRule(&Rule{ //nolint:errcheck
		Name: "outlier", Event: monitor.EvQueryCommit, Condition: cond,
		Actions: []Action{&PersistAction{Table: "outliers", Attrs: []string{"ID", "Query_Text"}}},
	})
	// Maintain the LAT with a second rule (order matters: detection first,
	// then insert, so the current query does not dilute its own baseline).
	e.AddRule(&Rule{ //nolint:errcheck
		Name: "maintain", Event: monitor.EvQueryCommit,
		Actions: []Action{&InsertAction{LAT: "Duration_LAT"}},
	})

	// First query: no LAT row yet → ∃-quantification makes condition false.
	dispatchQuery(e, queryObj(1, "sig", 10))
	if len(env.persisted) != 0 {
		t.Fatalf("fired without LAT row: %v", env.persisted)
	}
	// Steady instances.
	for i := 2; i <= 5; i++ {
		dispatchQuery(e, queryObj(int64(i), "sig", 10))
	}
	if len(env.persisted) != 0 {
		t.Fatalf("false positive: %v", env.persisted)
	}
	// Outlier: 10*5 < 100.
	dispatchQuery(e, queryObj(6, "sig", 100))
	if len(env.persisted) != 1 {
		t.Fatalf("outlier not caught: %v", env.persisted)
	}
	// Other signatures have separate baselines.
	dispatchQuery(e, queryObj(7, "other", 100))
	if len(env.persisted) != 1 {
		t.Fatalf("cross-signature contamination: %v", env.persisted)
	}
}

func TestRuleOrderIsRegistrationOrder(t *testing.T) {
	env := newFakeEnv()
	e := NewEngine(env)
	var order []string
	mk := func(name string) *Rule {
		return &Rule{
			Name: name, Event: monitor.EvQueryCommit,
			Actions: []Action{&FuncAction{Name: name, Fn: func(Env, *Ctx) error {
				order = append(order, name)
				return nil
			}}},
		}
	}
	e.AddRule(mk("third"))  //nolint:errcheck
	e.AddRule(mk("first"))  //nolint:errcheck
	e.AddRule(mk("second")) //nolint:errcheck
	dispatchQuery(e, queryObj(1, "s", 1))
	if strings.Join(order, ",") != "third,first,second" {
		t.Fatalf("order: %v", order)
	}
}

func TestDisableEnableAndRemove(t *testing.T) {
	env := newFakeEnv()
	e := NewEngine(env)
	fired := 0
	e.AddRule(&Rule{ //nolint:errcheck
		Name: "r", Event: monitor.EvQueryCommit,
		Actions: []Action{&FuncAction{Fn: func(Env, *Ctx) error { fired++; return nil }}},
	})
	dispatchQuery(e, queryObj(1, "s", 1))
	r, _ := e.Rule("r")
	r.SetEnabled(false)
	dispatchQuery(e, queryObj(2, "s", 1))
	r.SetEnabled(true)
	dispatchQuery(e, queryObj(3, "s", 1))
	if fired != 2 {
		t.Fatalf("fired: %d", fired)
	}
	if !e.RemoveRule("r") || e.RemoveRule("r") {
		t.Fatal("remove semantics")
	}
	dispatchQuery(e, queryObj(4, "s", 1))
	if fired != 2 {
		t.Fatal("removed rule fired")
	}
}

func TestDuplicateRuleRejected(t *testing.T) {
	e := NewEngine(newFakeEnv())
	if err := e.AddRule(&Rule{Name: "r", Event: monitor.EvQueryCommit}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRule(&Rule{Name: "r", Event: monitor.EvQueryCommit}); err == nil {
		t.Fatal("duplicate accepted")
	}
	if err := e.AddRule(&Rule{Event: monitor.EvQueryCommit}); err == nil {
		t.Fatal("nameless accepted")
	}
}

func TestFreeClassIterationOverActiveQueries(t *testing.T) {
	// Timer-driven rule over all live queries (paper §5.2: when the event
	// does not bind the condition's class, iterate over all objects).
	env := newFakeEnv()
	env.queries = []monitor.Object{
		queryObj(1, "a", 5),
		queryObj(2, "b", 50),
		queryObj(3, "c", 500),
	}
	e := NewEngine(env)
	cond, _ := ParseCondition("Query.Duration > 10")
	e.AddRule(&Rule{ //nolint:errcheck
		Name: "watch", Event: monitor.EvTimerAlarm, Condition: cond,
		Actions: []Action{&PersistAction{Table: "long_running", Attrs: []string{"Query.ID"}}},
	})
	e.Dispatch(monitor.EvTimerAlarm, map[string]monitor.Object{
		monitor.ClassTimer: &monitor.TimerObject{Name: "t", Now: time.Now()},
	})
	if len(env.persisted) != 2 {
		t.Fatalf("persisted: %v", env.persisted)
	}
	if e.Stats().Evaluations != 3 {
		t.Fatalf("evaluations: %d", e.Stats().Evaluations)
	}
}

func TestBlockerBlockedPairIteration(t *testing.T) {
	env := newFakeEnv()
	blocker := &fakeObj{class: monitor.ClassBlocker, attrs: map[string]sqltypes.Value{
		"ID": sqltypes.NewInt(10), "Query_Text": sqltypes.NewString("UPDATE t"),
	}}
	blocked := &fakeObj{class: monitor.ClassBlocked, attrs: map[string]sqltypes.Value{
		"ID": sqltypes.NewInt(20), "Wait_Time": sqltypes.NewFloat(30),
	}}
	env.pairs = [][2]monitor.Object{{blocker, blocked}}
	e := NewEngine(env)
	cond, _ := ParseCondition("Blocked.Wait_Time > 10")
	e.AddRule(&Rule{ //nolint:errcheck
		Name: "stuck", Event: monitor.EvTimerAlarm, Condition: cond,
		Actions: []Action{&PersistAction{Table: "stuck", Attrs: []string{"Blocker.ID", "Blocked.ID"}}},
	})
	e.Dispatch(monitor.EvTimerAlarm, map[string]monitor.Object{
		monitor.ClassTimer: &monitor.TimerObject{Name: "t", Now: time.Now()},
	})
	if len(env.persisted) != 1 || env.persisted[0] != "stuck:10,20" {
		t.Fatalf("persisted: %v", env.persisted)
	}
}

func TestActionsSendMailRunExternalCancelSet(t *testing.T) {
	env := newFakeEnv()
	e := NewEngine(env)
	e.AddRule(&Rule{ //nolint:errcheck
		Name: "multi", Event: monitor.EvQueryCommit,
		Actions: []Action{
			&SendMailAction{Address: "dba@example.com", Text: "query {ID} took {Duration}s"},
			&RunExternalAction{Command: "analyze --id={ID}"},
			&CancelAction{},
			&SetTimerAction{Timer: "t1", Period: time.Second, Count: 3},
		},
	})
	dispatchQuery(e, queryObj(42, "s", 7))
	if len(env.mails) != 1 || !strings.Contains(env.mails[0], "query 42 took 7s") {
		t.Fatalf("mail: %v", env.mails)
	}
	if len(env.commands) != 1 || env.commands[0] != "analyze --id=42" {
		t.Fatalf("cmd: %v", env.commands)
	}
	if len(env.cancelled) != 1 || env.cancelled[0] != 42 {
		t.Fatalf("cancel: %v", env.cancelled)
	}
	if len(env.timerSets) != 1 || env.timerSets[0] != "t1/1s/3" {
		t.Fatalf("timer: %v", env.timerSets)
	}
}

func TestSubstituteLATReference(t *testing.T) {
	env := newFakeEnv()
	table, _ := lat.New(lat.Spec{
		Name:    "L",
		GroupBy: []string{"Logical_Signature"},
		Aggs:    []lat.AggCol{{Func: lat.Avg, Attr: "Duration", Name: "AvgD"}},
	})
	env.lats["L"] = table
	table.Insert(queryObj(1, "s", 4).Get) //nolint:errcheck
	table.Insert(queryObj(2, "s", 6).Get) //nolint:errcheck
	ctx := &Ctx{
		Objects: map[string]monitor.Object{monitor.ClassQuery: queryObj(3, "s", 100)},
		Primary: queryObj(3, "s", 100),
	}
	out := Substitute(env, "avg is {L.AvgD}, unknown {nope.x}", ctx)
	if out != "avg is 5, unknown {nope.x}" {
		t.Fatalf("substitute: %q", out)
	}
}

func TestActionErrorsDoNotStopLaterActions(t *testing.T) {
	env := newFakeEnv()
	e := NewEngine(env)
	ran := false
	e.AddRule(&Rule{ //nolint:errcheck
		Name: "r", Event: monitor.EvQueryCommit,
		Actions: []Action{
			&InsertAction{LAT: "missing"}, // fails
			&FuncAction{Fn: func(Env, *Ctx) error { ran = true; return nil }},
		},
	})
	dispatchQuery(e, queryObj(1, "s", 1))
	if !ran {
		t.Fatal("later action skipped after error")
	}
	if e.Stats().ActionErrs != 1 {
		t.Fatalf("action errors: %d", e.Stats().ActionErrs)
	}
}

func TestConditionErrorsCountAndSkip(t *testing.T) {
	env := newFakeEnv()
	e := NewEngine(env)
	cond, _ := ParseCondition("Query.No_Such_Attr > 1")
	fired := false
	e.AddRule(&Rule{ //nolint:errcheck
		Name: "bad", Event: monitor.EvQueryCommit, Condition: cond,
		Actions: []Action{&FuncAction{Fn: func(Env, *Ctx) error { fired = true; return nil }}},
	})
	dispatchQuery(e, queryObj(1, "s", 1))
	if fired {
		t.Fatal("rule with erroring condition fired")
	}
	if e.Stats().ActionErrs != 1 {
		t.Fatalf("errors: %d", e.Stats().ActionErrs)
	}
}

func TestThreeValuedLogicInConditions(t *testing.T) {
	env := newFakeEnv()
	e := NewEngine(env)
	obj := &fakeObj{class: monitor.ClassQuery, attrs: map[string]sqltypes.Value{
		"A": sqltypes.Null,
		"B": sqltypes.NewInt(5),
	}}
	check := func(src string, want bool) {
		t.Helper()
		cond, err := ParseCondition(src)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.evalCond(cond, &Ctx{
			Objects: map[string]monitor.Object{monitor.ClassQuery: obj},
			Primary: obj,
		})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if got != want {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
	check("Query.A > 1", false)
	check("Query.A > 1 OR Query.B > 1", true)
	check("Query.A > 1 AND Query.B > 1", false)
	check("NOT Query.A > 1", true) // NULL comparison is not-true
	check("Query.A IS NULL", true)
	check("Query.A IS NOT NULL", false)
	check("Query.B = 5 AND (Query.B < 10 OR Query.A = 1)", true)
}

func TestLATMissingRowFalsifiesWholeCondition(t *testing.T) {
	env := newFakeEnv()
	table, _ := lat.New(lat.Spec{
		Name:    "L",
		GroupBy: []string{"Logical_Signature"},
		Aggs:    []lat.AggCol{{Func: lat.Avg, Attr: "Duration", Name: "AvgD"}},
	})
	env.lats["L"] = table
	e := NewEngine(env)
	// Even OR with a true branch: a reference to a missing LAT row makes
	// the whole condition false (∃-quantification per §5.2).
	cond, _ := ParseCondition("Query.Duration > 0 AND L.AvgD > 0")
	ok, err := e.evalCond(cond, &Ctx{
		Objects: map[string]monitor.Object{monitor.ClassQuery: queryObj(1, "s", 5)},
		Primary: queryObj(1, "s", 5),
	})
	if err != nil || ok {
		t.Fatalf("missing LAT row: ok=%v err=%v", ok, err)
	}
}

func TestTimerManagerFiresAndStops(t *testing.T) {
	env := newFakeEnv()
	e := NewEngine(env)
	var mu sync.Mutex
	alarms := 0
	e.AddRule(&Rule{ //nolint:errcheck
		Name: "tick", Event: monitor.EvTimerAlarm,
		Actions: []Action{&FuncAction{Fn: func(Env, *Ctx) error {
			mu.Lock()
			alarms++
			mu.Unlock()
			return nil
		}}},
	})
	tm := NewTimerManager(e)
	defer tm.Close()
	if err := tm.Set("t", 20*time.Millisecond, 3); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	mu.Lock()
	got := alarms
	mu.Unlock()
	if got != 3 {
		t.Fatalf("alarms: %d, want 3", got)
	}
	if len(tm.Active()) != 0 {
		t.Fatalf("timer not removed after count: %v", tm.Active())
	}
	// Infinite timer + disable.
	if err := tm.Set("inf", 10*time.Millisecond, -1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if err := tm.Set("inf", 0, 0); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	after := alarms
	mu.Unlock()
	time.Sleep(50 * time.Millisecond)
	mu.Lock()
	final := alarms
	mu.Unlock()
	if final-after > 1 {
		t.Fatalf("timer kept firing after disable: %d -> %d", after, final)
	}
	if err := tm.Set("bad", 0, 5); err == nil {
		t.Fatal("zero period accepted")
	}
}

func TestPersistFromLAT(t *testing.T) {
	env := newFakeEnv()
	table, _ := lat.New(lat.Spec{
		Name:    "TopQ",
		GroupBy: []string{"ID"},
		Aggs:    []lat.AggCol{{Func: lat.Max, Attr: "Duration", Name: "D"}},
		OrderBy: []lat.OrderKey{{Col: "D", Desc: true}},
		MaxRows: 10,
	})
	env.lats["TopQ"] = table
	for i := 1; i <= 3; i++ {
		table.Insert(queryObj(int64(i), "s", float64(i*10)).Get) //nolint:errcheck
	}
	e := NewEngine(env)
	e.AddRule(&Rule{ //nolint:errcheck
		Name: "flush", Event: monitor.EvTimerAlarm,
		Actions: []Action{&PersistAction{Table: "report", FromLAT: "TopQ"}},
	})
	e.Dispatch(monitor.EvTimerAlarm, map[string]monitor.Object{
		monitor.ClassTimer: &monitor.TimerObject{Name: "t", Now: time.Now()},
	})
	if len(env.persisted) != 3 {
		t.Fatalf("persisted: %v", env.persisted)
	}
	if env.persisted[0] != "report:3,30" {
		t.Fatalf("order/most-important-first: %v", env.persisted)
	}
}

// TestLATColumnFollowsRedefinition registers a rule against a LAT, then
// replaces the LAT with one whose columns come in another order, drops it
// and defines it again: the column position a reference resolved for the
// first table must not be used for the next.
func TestLATColumnFollowsRedefinition(t *testing.T) {
	env := newFakeEnv()
	mk := func(aggs ...lat.AggCol) *lat.Table {
		table, err := lat.New(lat.Spec{Name: "L", GroupBy: []string{"Logical_Signature"}, Aggs: aggs})
		if err != nil {
			t.Fatal(err)
		}
		table.Insert(queryObj(1, "s", 10).Get) //nolint:errcheck
		return table
	}
	maxA := lat.AggCol{Func: lat.Max, Attr: "Duration", Name: "A"}
	countB := lat.AggCol{Func: lat.Count, Name: "B"}
	first, reordered := mk(maxA, countB), mk(countB, maxA)
	e := NewEngine(env)
	cond, _ := ParseCondition("L.B = 1 AND L.A = 10")
	fired := 0
	if err := e.AddRule(&Rule{
		Name: "r", Event: monitor.EvQueryCommit, Condition: cond,
		Actions: []Action{&FuncAction{Fn: func(Env, *Ctx) error { fired++; return nil }}},
	}); err != nil {
		t.Fatal(err)
	}
	for i, step := range []struct {
		table     *lat.Table
		wantFired int
	}{{first, 1}, {reordered, 2}, {nil, 2}, {first, 3}} {
		delete(env.lats, "L")
		if step.table != nil {
			env.lats["L"] = step.table
		}
		dispatchQuery(e, queryObj(2, "s", 1))
		if fired != step.wantFired {
			t.Fatalf("step %d: rule fired %d times, want %d", i, fired, step.wantFired)
		}
	}
	if n := e.Stats().ActionErrs; n != 1 {
		t.Errorf("ActionErrs = %d, want 1 (the evaluation while L was dropped)", n)
	}
}
