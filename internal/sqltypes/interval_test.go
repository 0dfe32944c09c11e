package sqltypes

import (
	"math"
	"math/big"
	"testing"
)

// refCompare orders INT i against FLOAT f with exact arithmetic: NaN sorts
// above every number, the infinities by their sign, and a finite f is
// compared by math/big.
func refCompare(i int64, f float64) int {
	switch {
	case math.IsNaN(f), math.IsInf(f, 1):
		return -1
	case math.IsInf(f, -1):
		return 1
	}
	return new(big.Float).SetInt64(i).Cmp(big.NewFloat(f))
}

// contains is the reference membership: Compare places v on the inner side
// of each bound.
func contains(iv Interval, v Value) bool {
	lo, hi := Compare(v, iv.Lo.Val), Compare(v, iv.Hi.Val)
	return (iv.Lo.Val.IsNull() || lo > 0 || lo == 0 && iv.Lo.Incl) &&
		(iv.Hi.Val.IsNull() || hi < 0 || hi == 0 && iv.Hi.Incl)
}

// FuzzNumericOrder: Compare orders an INT and a FLOAT as exact arithmetic
// does, and antisymmetrically; converting an interval whose bounds are of
// either numeric kind to a kind keeps exactly the keys of that kind that
// Compare places inside it; and an intersection holds the keys both
// intervals hold. bits choose which bounds the intervals have and whether
// each is inclusive.
func FuzzNumericOrder(f *testing.F) {
	f.Add(int64(1<<53+1), float64(1<<53), uint8(0x0f))
	f.Add(int64(1<<53-1), float64(1<<53), uint8(0x1b))
	f.Add(int64(1<<53+1), float64(1<<53+2), uint8(0x35))
	f.Add(int64(math.MaxInt64), 0x1p63, uint8(0x0f))
	f.Add(int64(math.MaxInt64), 0x1p63, uint8(0x4a))
	f.Add(int64(math.MinInt64), -0x1p63, uint8(0x0f))
	f.Add(int64(math.MinInt64), -0x1p63, uint8(0x85))
	f.Add(int64(0), math.NaN(), uint8(0x05))
	f.Add(int64(7), math.Inf(1), uint8(0x0e))
	f.Add(int64(7), math.Inf(1), uint8(0x01))
	f.Add(int64(-7), math.Inf(-1), uint8(0x1d))
	f.Add(int64(0), 0.0, uint8(0x0a))
	f.Add(int64(0), math.Copysign(0, -1), uint8(0x0f))
	f.Add(int64(3), 2.5, uint8(0x05))
	f.Fuzz(func(t *testing.T, i int64, fl float64, bits uint8) {
		iv, fv := NewInt(i), NewFloat(fl)
		c := Compare(iv, fv)
		if want := refCompare(i, fv.Float()); c != want {
			t.Fatalf("Compare(INT %d, FLOAT %v) = %d, want %d", i, fl, c, want)
		}
		if r := Compare(fv, iv); r != -c {
			t.Fatalf("Compare(FLOAT %v, INT %d) = %d, want %d", fl, i, r, -c)
		}

		bound := func(v Value, have, incl uint8) Bound {
			if bits&have == 0 {
				return Bound{}
			}
			return Bound{v, bits&incl != 0}
		}
		interval := func(a, b Value) Interval {
			if bits&0x10 != 0 {
				a, b = b, a
			}
			return Interval{bound(a, 1, 2), bound(b, 4, 8)}
		}
		j := i + int64(bits>>5) - 4 // may wrap: the interval is then empty
		intervals := []Interval{
			interval(fv, NewFloat(float64(i))), // FLOAT bounds
			interval(iv, NewInt(j)),            // INT bounds
			interval(iv, fv),                   // one of each
		}
		keys := []Value{
			iv, NewInt(i - 1), NewInt(i + 1), NewInt(j),
			fv, NewFloat(math.Nextafter(fl, math.Inf(1))), NewFloat(math.Nextafter(fl, math.Inf(-1))),
			NewFloat(float64(i)), NewFloat(float64(j)),
			NewFloat(math.NaN()), NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)),
		}
		for _, in := range intervals {
			for _, k := range keys {
				for _, o := range intervals {
					if got, want := contains(in.Intersect(o), k), contains(in, k) && contains(o, k); got != want {
						t.Fatalf("%v in %+v ∩ %+v: %v, want %v", k, in, o, got, want)
					}
				}
				conv, ok := in.To(k.Kind())
				if got, want := ok && contains(conv, k), contains(in, k); got != want {
					t.Fatalf("%v in %+v: %v, in To(%s) = %+v (ok %v): %v", k, in, want, k.Kind(), conv, ok, got)
				}
				for _, b := range []Bound{conv.Lo, conv.Hi} {
					if ok && !b.Val.IsNull() && (b.Val.Kind() != k.Kind() || !b.Incl) {
						t.Fatalf("To(%s) of %+v has bound %+v", k.Kind(), in, b)
					}
				}
			}
		}
	})
}

// TestIntOf: the INT a FLOAT equals, if any, without converting a FLOAT
// beyond int64.
func TestIntOf(t *testing.T) {
	for _, c := range []struct {
		f  float64
		i  int64
		ok bool
	}{
		{3, 3, true},
		{-0x1p63, math.MinInt64, true},
		{0x1p63 - 1024, math.MaxInt64 - 1023, true},
		{0x1p63, 0, false},
		{2.5, 0, false},
		{math.NaN(), 0, false},
		{math.Inf(-1), 0, false},
	} {
		if i, ok := IntOf(c.f); i != c.i || ok != c.ok {
			t.Errorf("IntOf(%v) = %d, %v; want %d, %v", c.f, i, ok, c.i, c.ok)
		}
		if _, ok := IntOf(c.f); ok != (Compare(NewInt(c.i), NewFloat(c.f)) == 0) {
			t.Errorf("IntOf(%v) disagrees with Compare", c.f)
		}
	}
}
