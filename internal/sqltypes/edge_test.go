package sqltypes

import (
	"fmt"
	"math"
	"testing"
)

// TestValueEdgeCases pins Compare, Hash, Encode and String at the edges of
// each payload: NaN, signed zeros, infinities, the int64 extremes, INT/FLOAT
// pairs that meet across kinds, the empty string and an embedded 0x00. The
// expectations were recorded from the implementation and must not move when
// the Value layout does.
func TestValueEdgeCases(t *testing.T) {
	cases := []struct {
		v    Value
		hash uint64
		enc  string // hex of Encode
		str  string
	}{
		{NewFloat(math.NaN()), 0xf04f8cec44e9cb91, "03fff8000000000001", "NaN"},
		{NewFloat(0), 0xcd92cf54dc615e5, "038000000000000000", "0"},
		{NewFloat(math.Copysign(0, -1)), 0xcd92cf54dc615e5, "037fffffffffffffff", "-0"},
		{NewFloat(math.Inf(1)), 0xde89df54eac5618, "03fff0000000000000", "+Inf"},
		{NewFloat(math.Inf(-1)), 0xde81df54eab7c98, "03000fffffffffffff", "-Inf"},
		{NewInt(math.MinInt64), 0xcd9acf54dc6ef65, "020000000000000000", "-9223372036854775808"},
		{NewInt(math.MaxInt64), 0xaf9430dfc57bf4dd, "02ffffffffffffffff", "9223372036854775807"},
		{NewInt(0), 0xcd92cf54dc615e5, "028000000000000000", "0"},
		{NewInt(3), 0x2bd3f3fe58b56006, "028000000000000003", "3"},
		{NewFloat(3), 0x2bd3f3fe58b56006, "03c008000000000000", "3"},
		{NewFloat(3.5), 0xcb0a4f54da3dcb9, "03c00c000000000000", "3.5"},
		{NewFloat(math.MinInt64), 0xcd9acf54dc6ef65, "033c1fffffffffffff", "-9.223372036854776e+18"},
		{NewFloat(math.MaxInt64), 0xcd9acf54dc6ef65, "03c3e0000000000000", "9.223372036854776e+18"},
		{NewString(""), 0xaf63b94c8601b113, "040000", ""},
		{NewString("a\x00b"), 0x41f4960170e6960, "046100ff620000", "a\x00b"},
	}
	// cmp[i][j] is Compare(cases[i].v, cases[j].v) as '-', '0' or '+'.
	cmp := []string{
		"0000000000000--",
		"000-++-0---+---",
		"000-++-0---+---",
		"0++0+++++++++--",
		"0---0----------",
		"0---+0-----0---",
		"0++-++0+++++0--",
		"000-++-0---+---",
		"0++-++-+00-+---",
		"0++-++-+00-+---",
		"0++-++-+++0+---",
		"0---+0-----0---",
		"0++-++0+++++0--",
		"+++++++++++++0-",
		"++++++++++++++0",
	}
	for i, c := range cases {
		if got := c.v.Hash(); got != c.hash {
			t.Errorf("%d: Hash(%v) = %#x, want %#x", i, c.v, got, c.hash)
		}
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
