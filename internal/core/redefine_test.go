package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"sqlcm/internal/lat"
	"sqlcm/internal/rules"
)

// TestRulesFollowLATRedefinitionUnderLoad drops and redefines a LAT, its
// columns in another order each time, while two sessions run statements
// whose rules insert into it and read it. Rules keep the table they
// resolved, bound once; the redefinitions must reach them with no race
// (run under -race) and no insert lost: once the churn stops, the table
// that stays counts exactly the statements run after it was defined.
func TestRulesFollowLATRedefinitionUnderLoad(t *testing.T) {
	eng, _ := chaosEngine(t)
	s := Attach(eng, Options{})
	t.Cleanup(func() { s.Detach() })
	specs := []lat.Spec{
		{Name: "L", GroupBy: []string{"User"}, Aggs: []lat.AggCol{
			{Func: lat.Count, Name: "N"}, {Func: lat.Max, Attr: "Duration", Name: "D"}}},
		{Name: "L", GroupBy: []string{"User"}, Aggs: []lat.AggCol{
			{Func: lat.Max, Attr: "Duration", Name: "D"}, {Func: lat.Count, Name: "N"}}},
	}
	if _, err := s.DefineLAT(specs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewRule("count", "Query.Commit", "", &rules.InsertAction{LAT: "L"}); err != nil {
		t.Fatal(err)
	}
	var reads atomic.Int64
	if _, err := s.NewRule("read", "Query.Commit", "L.N >= 0 AND L.D >= 0",
		&rules.FuncAction{Name: "read", Fn: func(rules.Env, *rules.Ctx) error { reads.Add(1); return nil }}); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, user := range []string{"u1", "u2"} {
		wg.Add(1)
		go func(user string) {
			defer wg.Done()
			sess := eng.NewSession(user, "app")
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := sess.Exec("SELECT COUNT(*) FROM chaos_t", nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(user)
	}
	for i := 1; i <= 200; i++ {
		s.DropLAT("L")
		if _, err := s.DefineLAT(specs[i%2]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	s.DropLAT("L")
	final, err := s.DefineLAT(specs[1])
	if err != nil {
		t.Fatal(err)
	}
	sess := eng.NewSession("u3", "app")
	for i := 0; i < 7; i++ {
		mustExec(t, sess, "SELECT COUNT(*) FROM chaos_t")
	}
	rows := final.Rows()
	n := final.ColumnIndex("N")
	if len(rows) != 1 || rows[0][0].Str() != "u3" || rows[0][n].Int() != 7 {
		t.Fatalf("final table rows %v, want one group u3 with N = 7", rows)
	}
	if reads.Load() == 0 {
		t.Error("the reading rule never fired")
	}
}
