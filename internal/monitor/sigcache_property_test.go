package monitor

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"sqlcm/internal/catalog"
	"sqlcm/internal/engine"
	"sqlcm/internal/sqltypes"
)

// TestSigCacheDeterministicProperty is a property test run under -race:
// for several seeds, 8 goroutines hammer a shared SigCache with randomized
// per-goroutine access orders, and every answer must be value-identical to
// a sequential reference computation on a fresh cache. Concurrency may
// reorder who computes a signature, but never what the signature is —
// signatures are pure functions of the plan, and the cache must not leak a
// torn or duplicated entry even when insertion races.
func TestSigCacheDeterministicProperty(t *testing.T) {
	cat := catalog.New()
	if _, err := cat.CreateTable("t", []catalog.Column{
		{Name: "a", Type: sqltypes.KindInt, PrimaryKey: true, NotNull: true},
		{Name: "b", Type: sqltypes.KindString},
	}); err != nil {
		t.Fatal(err)
	}
	const plans = 20
	refInfos := make([]*engine.QueryInfo, plans)
	for i := range refInfos {
		// Vary shape, not just constants, so logical signatures differ too.
		sql := fmt.Sprintf("SELECT a FROM t WHERE a = %d", i)
		if i%3 == 0 {
			sql = fmt.Sprintf("SELECT a, b FROM t WHERE a > %d", i)
		}
		refInfos[i] = buildQueryInfo(t, cat, sql)
	}

	// Sequential reference: one fresh cache, plans in order.
	refCache := NewSigCache()
	want := make([]*Sigs, plans)
	for i, qi := range refInfos {
		want[i] = refCache.For(qi)
	}

	for seed := int64(0); seed < 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			// The same plans, each with a fresh slot: a new cache entry.
			infos := make([]*engine.QueryInfo, plans)
			for i, qi := range refInfos {
				infos[i] = &engine.QueryInfo{Logical: qi.Logical, Physical: qi.Physical, Sigs: new(engine.SigSlot)}
			}
			c := NewSigCache()
			const goroutines = 8
			got := make([][]*Sigs, goroutines)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				// Each goroutine gets its own deterministic shuffle of 300
				// lookups; rand.Rand is not goroutine-safe, so the order is
				// drawn before the goroutine starts.
				r := rand.New(rand.NewSource(seed*1000 + int64(g)))
				order := make([]int, 300)
				for i := range order {
					order[i] = r.Intn(plans)
				}
				go func(g int, order []int) {
					defer wg.Done()
					res := make([]*Sigs, plans)
					for _, i := range order {
						s := c.For(infos[i])
						if res[i] != nil && res[i] != s {
							t.Errorf("goroutine %d: plan %d returned two distinct entries", g, i)
						}
						res[i] = s
					}
					got[g] = res
				}(g, order)
			}
			wg.Wait()
			if t.Failed() {
				return
			}

			touched := make(map[int]bool)
			for g := 0; g < goroutines; g++ {
				for i, s := range got[g] {
					if s == nil {
						continue // this goroutine's shuffle never hit plan i
					}
					touched[i] = true
					w := want[i]
					if s.Logical != w.Logical || s.Physical != w.Physical ||
						s.LogicalHex != w.LogicalHex || s.PhysicalHex != w.PhysicalHex ||
						s.LogicalText != w.LogicalText || s.PhysicalText != w.PhysicalText {
						t.Fatalf("goroutine %d plan %d: concurrent signature %+v != sequential %+v", g, i, s, w)
					}
				}
			}
			// One compute per distinct plan actually touched, regardless of
			// interleaving.
			if c.Computes() != int64(len(touched)) {
				t.Errorf("Computes = %d, want %d (distinct plans touched)", c.Computes(), len(touched))
			}
		})
	}
}
