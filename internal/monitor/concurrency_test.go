package monitor

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"sqlcm/internal/catalog"
	"sqlcm/internal/engine"
	"sqlcm/internal/lock"
	"sqlcm/internal/plan"
	"sqlcm/internal/signature"
	"sqlcm/internal/sqlparser"
	"sqlcm/internal/sqltypes"
)

// buildQueryInfo compiles one statement into a QueryInfo with real
// logical/physical plans and the plan's own signature slot, as a plan-cache
// entry would give it.
func buildQueryInfo(t *testing.T, cat *catalog.Catalog, sql string) *engine.QueryInfo {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	l, err := plan.BuildLogical(stmt, cat)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Optimize(l, cat)
	if err != nil {
		t.Fatal(err)
	}
	return &engine.QueryInfo{Logical: l, Physical: p, Sigs: new(engine.SigSlot)}
}

// TestSigCacheConcurrentSinglePlan races many goroutines onto the same
// plan: exactly one signature computation may be counted and every caller
// must get the same entry (the losing racer adopts the winner's Sigs).
func TestSigCacheConcurrentSinglePlan(t *testing.T) {
	cat := catalog.New()
	if _, err := cat.CreateTable("t", []catalog.Column{{Name: "a", Type: sqltypes.KindInt, PrimaryKey: true, NotNull: true}}); err != nil {
		t.Fatal(err)
	}
	qi := buildQueryInfo(t, cat, "SELECT a FROM t WHERE a = 1")

	c := NewSigCache()
	const goroutines = 16
	got := make([]*Sigs, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var s *Sigs
			for i := 0; i < 200; i++ {
				s = c.For(qi)
			}
			got[g] = s
		}(g)
	}
	wg.Wait()

	if c.Computes() != 1 {
		t.Errorf("Computes = %d, want exactly 1", c.Computes())
	}
	for g := 1; g < goroutines; g++ {
		if got[g] != got[0] {
			t.Errorf("goroutine %d got a different Sigs pointer", g)
		}
	}
	if got[0] == nil || got[0].Logical == 0 {
		t.Fatalf("bad signature entry: %+v", got[0])
	}
}

// TestSigCacheConcurrentManyPlans spreads distinct plans across shards:
// the miss counter must come out at exactly one compute per plan.
func TestSigCacheConcurrentManyPlans(t *testing.T) {
	cat := catalog.New()
	if _, err := cat.CreateTable("t", []catalog.Column{{Name: "a", Type: sqltypes.KindInt, PrimaryKey: true, NotNull: true}}); err != nil {
		t.Fatal(err)
	}
	const plans = 24
	infos := make([]*engine.QueryInfo, plans)
	for i := range infos {
		infos[i] = buildQueryInfo(t, cat, fmt.Sprintf("SELECT a FROM t WHERE a = %d", i))
	}

	c := NewSigCache()
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				c.For(infos[(g+i)%plans])
			}
		}(g)
	}
	wg.Wait()

	if c.Computes() != plans {
		t.Errorf("Computes = %d, want %d (one per distinct plan)", c.Computes(), plans)
	}
}

// TestTxnTrackerConcurrent drives interleaved statement streams for many
// transactions, each owned by one goroutine as a session owns its
// transaction, through one tracker and closes each out.
func TestTxnTrackerConcurrent(t *testing.T) {
	tr := NewTxnTracker()
	const txns = 64
	const stmtsPer = 50
	infos := make([]*engine.TxnInfo, txns)
	for id := range infos {
		infos[id] = &engine.TxnInfo{ID: lock.TxnID(id), SessionID: 1, User: "u", App: "a", StartTime: time.Now()}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < stmtsPer; i++ {
				for id := int64(w); id < txns; id += 8 {
					tr.Observe(infos[id], &Sigs{
						Logical:  signature.ID(id + 1),
						Physical: signature.ID(id + 2),
					}, time.Millisecond)
				}
			}
			// Each goroutine closes its own transactions, racing the
			// others on the tracker's hex cache.
			for id := int64(w); id < txns; id += 8 {
				obj := tr.Finish(infos[id], time.Second)
				n, ok := obj.Get("Number_of_instances")
				if !ok {
					t.Errorf("txn %d: no Number_of_instances", id)
					continue
				}
				if n.Int() != stmtsPer {
					t.Errorf("txn %d: Number_of_instances = %d, want %d", id, n.Int(), stmtsPer)
				}
				if sig, _ := obj.Get("Logical_Signature"); sig.Str() != obj.LogicalSig.String() {
					t.Errorf("txn %d: Logical_Signature = %s, want %s", id, sig.Str(), obj.LogicalSig)
				}
			}
		}(w)
	}
	wg.Wait()
}
