package sqltypes

import (
	"fmt"
	"math"
	"testing"
)

// TestValueEdgeCases pins Compare, Encode and String at the edges of each
// payload: NaN, signed zeros, infinities, the int64 extremes, INT/FLOAT
// pairs that meet across kinds, the empty string and an embedded 0x00. The
// expectations were recorded from the implementation and must not move when
// the Value layout does; NaN's row and column are PostgreSQL's order, which
// Encode already had: NaN equals NaN and sorts above every other number.
// NewFloat folds -0 into +0, so -0's row encodes and prints as +0's.
func TestValueEdgeCases(t *testing.T) {
	cases := []struct {
		v   Value
		enc string // hex of Encode
		str string
	}{
		{NewFloat(math.NaN()), "03fff8000000000001", "NaN"},
		{NewFloat(0), "038000000000000000", "0"},
		{NewFloat(math.Copysign(0, -1)), "038000000000000000", "0"},
		{NewFloat(math.Inf(1)), "03fff0000000000000", "+Inf"},
		{NewFloat(math.Inf(-1)), "03000fffffffffffff", "-Inf"},
		{NewInt(math.MinInt64), "020000000000000000", "-9223372036854775808"},
		{NewInt(math.MaxInt64), "02ffffffffffffffff", "9223372036854775807"},
		{NewInt(0), "028000000000000000", "0"},
		{NewInt(3), "028000000000000003", "3"},
		{NewFloat(3), "03c008000000000000", "3"},
		{NewFloat(3.5), "03c00c000000000000", "3.5"},
		{NewFloat(math.MinInt64), "033c1fffffffffffff", "-9.223372036854776e+18"},
		{NewFloat(math.MaxInt64), "03c3e0000000000000", "9.223372036854776e+18"},
		{NewString(""), "040000", ""},
		{NewString("a\x00b"), "046100ff620000", "a\x00b"},
	}
	// cmp[i][j] is Compare(cases[i].v, cases[j].v) as '-', '0' or '+'.
	cmp := []string{
		"0++++++++++++--",
		"-00-++-0---+---",
		"-00-++-0---+---",
		"-++0+++++++++--",
		"----0----------",
		"----+0-----0---",
		"-++-++0+++++---",
		"-00-++-0---+---",
		"-++-++-+00-+---",
		"-++-++-+00-+---",
		"-++-++-+++0+---",
		"----+0-----0---",
		"-++-++++++++0--",
		"+++++++++++++0-",
		"++++++++++++++0",
	}
	for i, c := range cases {
		if got := fmt.Sprintf("%x", c.v.Encode(nil)); got != c.enc {
			t.Errorf("%d: Encode(%v) = %s, want %s", i, c.v, got, c.enc)
		}
		if got := c.v.String(); got != c.str {
			t.Errorf("%d: String = %q, want %q", i, got, c.str)
		}
		for j, d := range cases {
			if got := "-0+"[Compare(c.v, d.v)+1]; got != cmp[i][j] {
				t.Errorf("Compare(%v, %v) = %c, want %c", c.v, d.v, got, cmp[i][j])
			}
		}
	}
}

// TestNaNWithSignBitIsTheOneNaN: x86 arithmetic makes NaNs with the sign
// bit set (Inf - Inf), whose bits would encode below -Inf. NewFloat folds
// every NaN into math.NaN(), so each encodes above +Inf, where Compare
// sorts it.
func TestNaNWithSignBitIsTheOneNaN(t *testing.T) {
	neg := NewFloat(math.Copysign(math.NaN(), -1))
	if got, want := fmt.Sprintf("%x", neg.Encode(nil)), "03fff8000000000001"; got != want {
		t.Errorf("Encode(NaN with sign bit) = %s, want %s", got, want)
	}
	if c := Compare(neg, NewFloat(math.Inf(1))); c != 1 {
		t.Errorf("Compare(NaN with sign bit, +Inf) = %d, want 1", c)
	}
}
