package main

import (
	"math"
	"slices"
	"testing"
)

func window1s(n int, base int32, tail int, slow int32) []int32 {
	w := make([]int32, n)
	for i := range w {
		w[i] = base + int32(i%10)
	}
	for i := 0; i < tail; i++ {
		w[n-1-i] = slow
	}
	slices.Sort(w) // quantile wants ascending input
	return w
}

func TestWindowedQuantile(t *testing.T) {
	quiet := window1s(2000, 100, 0, 0)
	hiccup := window1s(2000, 100, 400, 90_000) // one bad second: 20 % of it stalls
	stalls := window1s(2000, 100, 40, 60_000)  // a 2 % stall that recurs every second

	// A single slow window does not move the estimate.
	got := windowedQuantile([][]int32{quiet, quiet, hiccup, quiet, quiet}, 0.99, 1000)
	if got != quantile(quiet, 0.99) {
		t.Errorf("one hiccup window moved p99 to %v, want %v", got, quantile(quiet, 0.99))
	}
	// A stall present in every window stays in.
	got = windowedQuantile([][]int32{stalls, stalls, stalls, stalls}, 0.99, 1000)
	if got != 60_000 {
		t.Errorf("recurring stall: p99 = %v, want 60000", got)
	}
	// Windows too small for the percentile are left out...
	small := window1s(50, 5_000, 0, 0)
	got = windowedQuantile([][]int32{quiet, small, quiet}, 0.99, 1000)
	if got != quantile(quiet, 0.99) {
		t.Errorf("undersized window counted: p99 = %v", got)
	}
	// ...and when all are, every sample counts as one window.
	got = windowedQuantile([][]int32{small, small}, 0.5, 1000)
	if got != quantile(small, 0.5) {
		t.Errorf("fallback p50 = %v, want %v", got, quantile(small, 0.5))
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7}, 1, 10},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{2, 4, 4, 5, 9}, 3, 7},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %v, want 1 (IQR 5.5 over median 5.5)", s)
	}
}
