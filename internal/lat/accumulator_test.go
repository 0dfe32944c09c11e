package lat

import (
	"math"
	"math/rand"
	"testing"

	"sqlcm/internal/sqltypes"
)

// TestMergeMatchesSequentialAdd: folding a sequence in pieces and merging
// the pieces in order gives what one accumulator folding the whole
// sequence gives. The values are small integers (plus NULLs and strings),
// so every running sum is exact and only STDEV needs a tolerance.
func TestMergeMatchesSequentialAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := range 200 {
		var whole, merged Accumulator
		var piece Accumulator
		for range rng.Intn(40) {
			var v sqltypes.Value
			switch rng.Intn(10) {
			case 0:
				v = sqltypes.Null
			case 1:
				v = sqltypes.NewString(string(rune('a' + rng.Intn(26))))
			default:
				v = sqltypes.NewFloat(float64(rng.Intn(2000) - 1000))
			}
			whole.Add(v)
			piece.Add(v)
			if rng.Intn(4) == 0 {
				merged.Merge(&piece)
				piece = Accumulator{}
			}
		}
		merged.Merge(&piece)
		for fn := Count; fn <= Last; fn++ {
			w, m := whole.Value(fn), merged.Value(fn)
			if fn == Stdev && !w.IsNull() && !m.IsNull() {
				if math.Abs(w.Float()-m.Float()) <= 1e-9*math.Max(1, w.Float()) {
					continue
				}
			} else if sqltypes.Compare(w, m) == 0 && w.Kind() == m.Kind() {
				continue
			}
			t.Errorf("trial %d %s: sequential %v, merged %v", trial, fn, w, m)
		}
		if whole.memSize() != merged.memSize() {
			t.Errorf("trial %d: memSize sequential %d, merged %d", trial, whole.memSize(), merged.memSize())
		}
	}
}
