package main

import (
	"math"
	"slices"
	"sort"
)

// quantile returns the nearest-rank q-quantile of an ascending slice.
func quantile(sorted []int32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), because the
// driver that accepts or rejects a change computes its spreads with it.
// Fewer than two values have no spread: both quartiles are the value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

// windowedQuantile is the median over windows of each window's q-quantile.
// One slow window (a scheduler hiccup on a shared host) moves it by at most
// one rank, while a stall that recurs in every window stays in. Windows
// with fewer than minSamples values cannot support the quantile and are
// left out; if none can, the quantile of all samples together is returned.
func windowedQuantile(windows [][]int32, q float64, minSamples int) float64 {
	var per []float64
	for _, w := range windows {
		if len(w) >= minSamples {
			per = append(per, quantile(w, q))
		}
	}
	if len(per) > 0 {
		return median(per)
	}
	var all []int32
	for _, w := range windows {
		all = append(all, w...)
	}
	slices.Sort(all)
	return quantile(all, q)
}
