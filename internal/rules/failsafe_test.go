package rules

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"sqlcm/internal/lat"
	"sqlcm/internal/monitor"
	"sqlcm/internal/sqltypes"
)

// flakyEnv wraps fakeEnv with a Persist that fails after allow calls.
type flakyEnv struct {
	*fakeEnv
	mu    sync.Mutex
	allow int
}

var errFlaky = errors.New("persist refused")

func (f *flakyEnv) Persist(table string, cols []string, kinds []sqltypes.Kind, row []sqltypes.Value) error {
	f.mu.Lock()
	ok := f.allow > 0
	if ok {
		f.allow--
	}
	f.mu.Unlock()
	if !ok {
		return errFlaky
	}
	return f.fakeEnv.Persist(table, cols, kinds, row)
}

func TestPersistActionLATFailureMidway(t *testing.T) {
	// env.Persist dies after the second row of a three-row LAT persist: the
	// action must surface the error, with exactly the rows written before
	// the failure recorded.
	env := &flakyEnv{fakeEnv: newFakeEnv(), allow: 2}
	table, err := lat.New(lat.Spec{
		Name:    "L",
		GroupBy: []string{"ID"},
		Aggs:    []lat.AggCol{{Func: lat.Count, Name: "N"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	env.lats["L"] = table
	for i := int64(1); i <= 3; i++ {
		obj := queryObj(i, "s", 1)
		if err := table.Insert(func(ref string) (sqltypes.Value, bool) { return obj.Get(ref) }); err != nil {
			t.Fatal(err)
		}
	}
	a := &PersistAction{Table: "out", FromLAT: "L"}
	err = a.Run(env, &Ctx{})
	if !errors.Is(err, errFlaky) {
		t.Fatalf("err = %v, want injected persist failure", err)
	}
	if got := len(env.persisted); got != 2 {
		t.Fatalf("rows persisted before failure: %d, want 2", got)
	}
}

func TestPersistActionUnresolvedAttribute(t *testing.T) {
	env := newFakeEnv()
	a := &PersistAction{Table: "out", Attrs: []string{"ID", "No_Such_Attr"}}
	obj := queryObj(1, "s", 1)
	ctx := &Ctx{Objects: map[string]monitor.Object{monitor.ClassQuery: obj}, Primary: obj}
	err := a.Run(env, ctx)
	if err == nil || !strings.Contains(err.Error(), "unresolved attribute") {
		t.Fatalf("err = %v, want unresolved attribute", err)
	}
	if len(env.persisted) != 0 {
		t.Fatalf("partial row persisted despite unresolved attribute: %v", env.persisted)
	}
}

func TestPersistActionColumnCollision(t *testing.T) {
	env := newFakeEnv()
	a := &PersistAction{Table: "out", Attrs: []string{"Blocker.Duration", "Blocker_Duration"}}
	blocker := &fakeObj{class: monitor.ClassBlocker, attrs: map[string]sqltypes.Value{
		"Duration": sqltypes.NewFloat(1),
	}}
	obj := &fakeObj{class: monitor.ClassQuery, attrs: map[string]sqltypes.Value{
		"Blocker_Duration": sqltypes.NewFloat(2),
	}}
	ctx := &Ctx{Objects: map[string]monitor.Object{
		monitor.ClassQuery:   obj,
		monitor.ClassBlocker: blocker,
	}, Primary: obj}
	err := a.Run(env, ctx)
	if err == nil || !strings.Contains(err.Error(), "both map to column") {
		t.Fatalf("err = %v, want column collision", err)
	}
}

func TestQuarantineAfterConsecutivePanics(t *testing.T) {
	env := newFakeEnv()
	e := NewEngine(env)
	var infos []QuarantineInfo
	var mu sync.Mutex
	e.SetOnQuarantine(func(info QuarantineInfo) {
		mu.Lock()
		infos = append(infos, info)
		mu.Unlock()
	})
	if err := e.AddRule(&Rule{
		Name:  "bad",
		Event: monitor.EvQueryCommit,
		Actions: []Action{&FuncAction{Fn: func(Env, *Ctx) error {
			panic("kaboom")
		}}},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		dispatchQuery(e, queryObj(int64(i), "s", 1))
	}
	if !e.Quarantined("bad") {
		t.Fatal("rule not quarantined")
	}
	if got := e.Stats().Panics; got != 3 {
		t.Fatalf("panics: %d, want 3 (evaluation stops at quarantine)", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(infos) != 1 || infos[0].Rule != "bad" || infos[0].Failures != 3 ||
		!strings.Contains(infos[0].Err, "kaboom") {
		t.Fatalf("quarantine info: %+v", infos)
	}
}

func TestQuarantineResetOnSuccess(t *testing.T) {
	// A rule that panics intermittently — never hitting the consecutive
	// threshold — stays live.
	env := newFakeEnv()
	e := NewEngine(env)
	n := 0
	if err := e.AddRule(&Rule{
		Name:  "flappy",
		Event: monitor.EvQueryCommit,
		Actions: []Action{&FuncAction{Fn: func(Env, *Ctx) error {
			n++
			if n%3 == 0 {
				return nil // every third evaluation succeeds
			}
			panic("flap")
		}}},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		dispatchQuery(e, queryObj(int64(i), "s", 1))
	}
	if e.Quarantined("flappy") {
		t.Fatal("intermittent rule quarantined despite successes resetting the streak")
	}
}

func TestReinstateUnknownRule(t *testing.T) {
	e := NewEngine(newFakeEnv())
	if e.Reinstate("ghost") {
		t.Fatal("reinstated a rule that does not exist")
	}
}
