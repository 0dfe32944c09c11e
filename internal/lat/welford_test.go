package lat

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"sqlcm/internal/sqltypes"
)

// twoPass computes the sample standard deviation by the numerically robust
// two-pass method — the independent reference the Welford accumulator is
// checked against.
func twoPass(xs []float64) float64 {
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var m2 float64
	for _, x := range xs {
		m2 += (x - mean) * (x - mean)
	}
	return math.Sqrt(m2 / float64(len(xs)-1))
}

// naiveStdev is the formula the accumulator used before the Welford fix:
// sqrt((Σx² − (Σx)²/n)/(n−1)). Kept here only to document why it was
// replaced.
func naiveStdev(xs []float64) float64 {
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	n := float64(len(xs))
	v := (sumSq - sum*sum/n) / (n - 1)
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// TestStdevLargeMagnitudeRegression reproduces the divergence the
// differential oracle found on seed 41: TxnStats.SdB aggregates Bytes
// values around 1e9 whose spread is a few hundred. The old sum-of-squares
// accumulator computes Σx² ≈ 2.6e20, where one ulp is ≈ 3e4 — the entire
// variance (~800) is below the rounding noise of the subtraction, so the
// reported stdev was garbage. Welford's recurrence never forms the large
// intermediates and must agree with a two-pass reference to ~1e-9.
func TestStdevLargeMagnitudeRegression(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	xs := make([]float64, 256)
	for i := range xs {
		xs[i] = 1e9 + r.Float64()*100
	}
	want := twoPass(xs)

	// Document the cancellation: the old formula is off by orders of
	// magnitude on exactly this input.
	if naive := naiveStdev(xs); math.Abs(naive-want) <= 1e-3*want {
		t.Fatalf("naive formula unexpectedly accurate (%v vs %v); regression input is wrong", naive, want)
	}

	tab, err := New(Spec{
		Name:    "TxnStats",
		GroupBy: []string{"User"},
		Aggs:    []AggCol{{Func: Stdev, Attr: "Bytes", Name: "SdB"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range xs {
		err := tab.Insert(obj(map[string]sqltypes.Value{
			"User":  sqltypes.NewString("u"),
			"Bytes": sqltypes.NewFloat(x),
		}))
		if err != nil {
			t.Fatal(err)
		}
	}
	row, ok := tab.Lookup([]sqltypes.Value{sqltypes.NewString("u")})
	if !ok {
		t.Fatal("group missing")
	}
	got := row[1].Float()
	if math.Abs(got-want) > 1e-9*want {
		t.Fatalf("stdev = %v, want %v (relative error %g)", got, want, math.Abs(got-want)/want)
	}
}

// TestStdevLargeMagnitudeExact: 1e9+{1,2,3} has stdev exactly 1. The old
// accumulator returned 0 here (the variance vanished in the subtraction).
func TestStdevLargeMagnitudeExact(t *testing.T) {
	tab, err := New(Spec{
		Name:    "t",
		GroupBy: []string{"g"},
		Aggs:    []AggCol{{Func: Stdev, Attr: "v", Name: "sd"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{1e9 + 1, 1e9 + 2, 1e9 + 3} {
		tab.Insert(obj(map[string]sqltypes.Value{"g": sqltypes.NewInt(1), "v": sqltypes.NewFloat(x)})) //nolint:errcheck
	}
	row, _ := tab.Lookup([]sqltypes.Value{sqltypes.NewInt(1)})
	if sd := row[1].Float(); math.Abs(sd-1) > 1e-9 {
		t.Fatalf("stdev = %v, want 1", sd)
	}
}

// TestAgingStdevBlockMerge checks the Chan et al. merge of per-block
// Welford states: values spread across several aging blocks, at large
// magnitude, must still match the two-pass reference over the surviving
// window.
func TestAgingStdevBlockMerge(t *testing.T) {
	clk := &manualClock{now: time.Unix(1_700_000_000, 0).UTC()}
	tab, err := New(Spec{
		Name:        "t",
		GroupBy:     []string{"g"},
		Aggs:        []AggCol{{Func: Stdev, Attr: "v", Name: "sd", Aging: true}},
		AgingWindow: 10 * time.Second,
		AgingBlock:  time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	tab.SetClock(clk.Now)

	r := rand.New(rand.NewSource(41))
	var live []float64
	for i := 0; i < 40; i++ {
		x := 1e9 + r.Float64()*100
		live = append(live, x)
		tab.Insert(obj(map[string]sqltypes.Value{"g": sqltypes.NewInt(1), "v": sqltypes.NewFloat(x)})) //nolint:errcheck
		if i%5 == 4 {
			clk.now = clk.now.Add(900 * time.Millisecond) // cross block boundaries
		}
	}
	row, _ := tab.Lookup([]sqltypes.Value{sqltypes.NewInt(1)})
	want := twoPass(live) // nothing expired: 40 inserts span ~7s < 10s window
	if got := row[1].Float(); math.Abs(got-want) > 1e-9*want {
		t.Fatalf("aging stdev = %v, want %v", got, want)
	}
}
