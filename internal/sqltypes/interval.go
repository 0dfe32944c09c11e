package sqltypes

import "math"

// Bound is one end of an Interval, itself inside when Incl. A NULL Val is
// no bound: that end is open.
type Bound struct {
	Val  Value
	Incl bool
}

// Interval is the set of values Compare places between Lo and Hi. Index
// seeks and the rule checker read a comparison with a constant as one and
// convert it to the kind it constrains (To), so neither reasons about
// FLOAT and INT itself.
type Interval struct{ Lo, Hi Bound }

// Point is the interval of the values equal to v.
func Point(v Value) Interval { return Interval{Bound{v, true}, Bound{v, true}} }

// admits reports whether v lies on the inner side of b, a lower bound when
// lower.
func (b Bound) admits(v Value, lower bool) bool {
	if b.Val.IsNull() {
		return true
	}
	c := Compare(v, b.Val)
	if !lower {
		c = -c
	}
	return c > 0 || (c == 0 && b.Incl)
}

// Intersect is the interval of the values inside both iv and o.
func (iv Interval) Intersect(o Interval) Interval {
	return Interval{tighter(iv.Lo, o.Lo, true), tighter(iv.Hi, o.Hi, false)}
}

// tighter is whichever of two lower (upper when !lower) bounds admits
// less.
func tighter(a, b Bound, lower bool) Bound {
	if !a.Val.IsNull() && b.admits(a.Val, lower) {
		return a
	}
	return b
}

// To converts iv to kind. For a numeric kind (INT and BOOL convert as one)
// the result holds exactly the values of that kind iv holds, with
// inclusive bounds of that kind, and ok is false when there are none: INT
// x > FLOAT 2.5 becomes x >= 3, FLOAT x >= INT 2^53+1 becomes x >=
// 2^53+2, and FLOAT x = INT 2^53+1 holds no FLOAT. Non-numeric bounds, and
// bounds on a non-numeric kind, pass unchanged.
func (iv Interval) To(kind Kind) (Interval, bool) {
	lo, lok := iv.Lo.to(kind, true)
	hi, hok := iv.Hi.to(kind, false)
	out := Interval{lo, hi}
	return out, lok && hok && (lo.Val.IsNull() || out.Hi.admits(lo.Val, false))
}

// to converts b, a lower bound when lower, to an inclusive bound of kind.
// It starts from the INT at or below b.Val (at the int64 end past a float
// beyond it, or NaN, which sorts above every number) or the FLOAT nearest
// to it; if that lies outside b, the value of kind just past it, inward,
// is the bound, and there may be none.
func (b Bound) to(kind Kind, lower bool) (Bound, bool) {
	v, w, f := b.Val, b.Val, b.Val.Float()
	switch toInt := kind == KindInt || kind == KindBool; {
	case !v.IsNumeric() || !toInt && kind != KindFloat:
		return b, true
	case toInt && v.kind != KindFloat:
		w = NewInt(v.i)
	case toInt && (f != f || f >= 0x1p63):
		w = NewInt(math.MaxInt64)
	case toInt && f < -0x1p63:
		w = NewInt(math.MinInt64)
	case toInt:
		w = NewInt(int64(math.Floor(f)))
	case v.kind != KindFloat:
		w = NewFloat(float64(v.i))
	}
	ok := true
	if !b.admits(w, lower) {
		w, ok = w.step(lower)
	}
	return Bound{w, true}, ok
}

// step returns the value of v's kind just above v (below when !up) in
// Compare's order, which runs from +Inf on to NaN; ok is false past the
// end of the kind.
func (v Value) step(up bool) (Value, bool) {
	f := v.Float()
	switch {
	case v.kind != KindFloat && up:
		return NewInt(v.i + 1), v.i != math.MaxInt64
	case v.kind != KindFloat:
		return NewInt(v.i - 1), v.i != math.MinInt64
	case f != f:
		return NewFloat(math.Inf(1)), !up
	case up && math.IsInf(f, 1):
		return NewFloat(math.NaN()), true
	case up:
		return NewFloat(math.Nextafter(f, math.Inf(1))), true
	default:
		return NewFloat(math.Nextafter(f, math.Inf(-1))), !math.IsInf(f, -1)
	}
}

// IntOf returns the INT f equals under Compare, if any: f is integral and
// inside [-2^63, 2^63).
func IntOf(f float64) (int64, bool) {
	if f >= -0x1p63 && f < 0x1p63 && f == math.Trunc(f) {
		return int64(f), true
	}
	return 0, false
}
