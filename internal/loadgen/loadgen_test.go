package loadgen

import (
	"math/rand"
	"testing"
	"time"

	"sqlcm/internal/sim"
	"sqlcm/internal/workload"
)

func TestPercentile(t *testing.T) {
	if got := percentile(nil, 0.5); got != 0 {
		t.Fatalf("empty: %v", got)
	}
	lats := make([]time.Duration, 100)
	for i := range lats {
		lats[i] = time.Duration(i+1) * time.Millisecond // already sorted
	}
	cases := []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 50 * time.Millisecond},
		{0.99, 99 * time.Millisecond},
		{0.999, 99 * time.Millisecond}, // 100 samples can't resolve p999
		{1.0, 100 * time.Millisecond},
	}
	for _, c := range cases {
		if got := percentile(lats, c.q); got != c.want {
			t.Fatalf("p%.3f: got %v want %v", c.q, got, c.want)
		}
	}
}

// TestPickFollowsProfile: the statement mix tracks the sim profile's
// weights — the blocker profile issues roughly 3x the lineitem-update
// share of the OLTP profile, and identical seeds give identical picks.
func TestPickFollowsProfile(t *testing.T) {
	mix := func(p sim.Profile, seed int64) map[string]int {
		r := rand.New(rand.NewSource(seed))
		wk := &worker{
			r:    r,
			lkey: workload.Zipf(r, 1.3, 100),
			okey: workload.Zipf(r, 1.3, 25),
			w:    p.Weights(),
		}
		counts := map[string]int{}
		for i := 0; i < 10000; i++ {
			name, values := wk.pick()
			if len(values) == 0 {
				t.Fatalf("pick %s returned no values", name)
			}
			counts[name]++
		}
		return counts
	}
	oltp := mix(sim.ProfileOLTP, 1)
	blocker := mix(sim.ProfileBlocker, 1)
	if oltp["sel_l"] < 4000 || oltp["sel_l"] > 6000 {
		t.Fatalf("oltp sel_l share off: %v", oltp)
	}
	// OLTP weights put 8%% on upd_l, blocker 30%%.
	if blocker["upd_l"] < 2*oltp["upd_l"] {
		t.Fatalf("blocker profile not write-heavier: oltp=%v blocker=%v", oltp, blocker)
	}
	again := mix(sim.ProfileOLTP, 1)
	for k, v := range oltp {
		if again[k] != v {
			t.Fatalf("same seed, different mix: %v vs %v", oltp, again)
		}
	}
}

// TestKeysStayInRange: every drawn key names a loaded row, down to key
// spaces too small to hold one orders row per four lineitems.
func TestKeysStayInRange(t *testing.T) {
	for keys := 1; keys <= 8; keys++ {
		cfg := Config{Keys: keys, Seed: 5}.withDefaults()
		wk := newWorker(cfg, 0, sim.ProfileOLTP.Weights())
		orders := max(1, keys/4)
		for i := 0; i < 1000; i++ {
			if k := wk.lkey(); k < 0 || k >= keys {
				t.Fatalf("keys=%d: lineitem key %d outside [0, %d)", keys, k, keys)
			}
			if k := wk.okey(); k < 0 || k >= orders {
				t.Fatalf("keys=%d: orders key %d outside [0, %d)", keys, k, orders)
			}
		}
	}
}
