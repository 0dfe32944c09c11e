package sqltypes

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestKindNames(t *testing.T) {
	cases := map[string]Kind{
		"INT": KindInt, "integer": KindInt, "FLOAT": KindFloat,
		"varchar": KindString, "TEXT": KindString, "BOOL": KindBool,
		"datetime": KindTime,
	}
	for name, want := range cases {
		got, err := KindFromName(name)
		if err != nil {
			t.Fatalf("KindFromName(%q): %v", name, err)
		}
		if got != want {
			t.Errorf("KindFromName(%q) = %v, want %v", name, got, want)
		}
	}
	for _, name := range []string{"gibberish", "BLOB"} {
		if _, err := KindFromName(name); err == nil {
			t.Errorf("KindFromName accepted %q", name)
		}
	}
}

func TestValueAccessors(t *testing.T) {
	now := time.Now()
	if got := NewInt(42).Int(); got != 42 {
		t.Errorf("Int = %d", got)
	}
	if got := NewFloat(2.5).Float(); got != 2.5 {
		t.Errorf("Float = %g", got)
	}
	if got := NewString("x").Str(); got != "x" {
		t.Errorf("Str = %q", got)
	}
	if !NewBool(true).Bool() || NewBool(false).Bool() {
		t.Error("Bool roundtrip failed")
	}
	if got := NewTime(now).Time(); !got.Equal(now) {
		t.Errorf("Time = %v, want %v", got, now)
	}
	if !Null.IsNull() || NewInt(0).IsNull() {
		t.Error("IsNull wrong")
	}
}

// TestValueSize: every tuple, result row, parameter and LAT cell copies a
// Value, so its size is part of the contract.
func TestValueSize(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n != 32 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want 32", n)
	}
}

func TestCompareOrdering(t *testing.T) {
	ordered := []Value{
		Null,
		NewInt(-7),
		NewBool(false), // == 0 numerically; strictly above -7, below 1
		NewBool(true),  // == 1
		NewFloat(1.5),
		NewInt(2),
		NewFloat(math.MaxFloat64),
		NewString("a"),
		NewString("ab"),
		NewString("b"),
		NewTime(time.Unix(0, 10)),
		NewTime(time.Unix(0, 20)),
	}
	for i := range ordered {
		for j := range ordered {
			got := Compare(ordered[i], ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v, %v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestCompareNumericCrossKind(t *testing.T) {
	if Compare(NewInt(3), NewFloat(3.0)) != 0 {
		t.Error("INT 3 != FLOAT 3.0")
	}
	if Compare(NewInt(3), NewFloat(3.5)) != -1 {
		t.Error("INT 3 should sort before FLOAT 3.5")
	}
	if Compare(NewBool(true), NewInt(1)) != 0 {
		t.Error("TRUE != 1")
	}
}

func TestEqualAcrossKinds(t *testing.T) {
	pairs := [][2]Value{
		{NewInt(5), NewFloat(5)},
		{NewBool(true), NewInt(1)},
		{NewString("abc"), NewString("abc")},
		{Null, Null},
	}
	for _, p := range pairs {
		if !Equal(p[0], p[1]) {
			t.Fatalf("expected %v == %v", p[0], p[1])
		}
	}
}

func randValue(r *rand.Rand) Value {
	switch r.Intn(6) {
	case 0:
		return Null
	case 1:
		return NewBool(r.Intn(2) == 1)
	case 2:
		return NewInt(r.Int63() - r.Int63())
	case 3:
		return NewFloat(r.NormFloat64() * 1e6)
	case 4:
		n := r.Intn(20)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + r.Intn(26))
		}
		return NewString(string(b))
	default:
		return NewTime(time.Unix(r.Int63n(1e9), r.Int63n(1e9)))
	}
}

func TestEncodeDecodeRoundTripQuick(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		v := randValue(r)
		enc := v.Encode(nil)
		got, rest, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(%v): %v", v, err)
		}
		if len(rest) != 0 {
			t.Fatalf("Decode(%v): %d leftover bytes", v, len(rest))
		}
		if Compare(got, v) != 0 {
			t.Fatalf("round trip %v -> %v", v, got)
		}
	}
}

func TestEncodeOrderPreserving(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 4000; i++ {
		a, b := randValue(r), randValue(r)
		// Order preservation is guaranteed for same-kind values and
		// numeric values encoded with the same tag class.
		sameClass := a.Kind() == b.Kind()
		if !sameClass {
			continue
		}
		cmp := Compare(a, b)
		ea, eb := a.Encode(nil), b.Encode(nil)
		bcmp := bytes.Compare(ea, eb)
		if cmp != bcmp {
			t.Fatalf("order mismatch: Compare(%v,%v)=%d but bytes=%d", a, b, cmp, bcmp)
		}
	}
}

func TestCompositeKeyRoundTrip(t *testing.T) {
	vals := []Value{NewInt(1), NewString("a\x00b"), Null, NewFloat(-2.5), NewString("\x00\x00\x01")}
	key := EncodeKey(vals...)
	got, err := DecodeKey(key)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(vals) {
		t.Fatalf("got %d values, want %d", len(got), len(vals))
	}
	for i := range vals {
		if Compare(got[i], vals[i]) != 0 {
			t.Errorf("component %d: %v != %v", i, got[i], vals[i])
		}
	}
}

func TestOrderedIntEncodingQuick(t *testing.T) {
	f := func(a, b int64) bool {
		ea := encodeOrderedInt(nil, a)
		eb := encodeOrderedInt(nil, b)
		cmp := bytes.Compare(ea, eb)
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOrderedFloatEncodingQuick(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		ea := encodeOrderedFloat(nil, a)
		eb := encodeOrderedFloat(nil, b)
		cmp := bytes.Compare(ea, eb)
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestArith(t *testing.T) {
	cases := []struct {
		op      BinaryOp
		a, b    Value
		want    Value
		wantErr bool
	}{
		{OpAdd, NewInt(2), NewInt(3), NewInt(5), false},
		{OpSub, NewInt(2), NewInt(3), NewInt(-1), false},
		{OpMul, NewInt(4), NewFloat(0.5), NewFloat(2), false},
		{OpDiv, NewInt(6), NewInt(3), NewInt(2), false},
		{OpDiv, NewInt(7), NewInt(2), NewFloat(3.5), false},
		{OpDiv, NewInt(1), NewInt(0), Null, true},
		{OpMod, NewInt(7), NewInt(3), NewInt(1), false},
		// FLOAT % keeps the dividend's sign and stays below the divisor
		// far beyond int64's range.
		{OpMod, NewFloat(1e300), NewFloat(3), NewFloat(math.Mod(1e300, 3)), false},
		{OpMod, NewFloat(-7.5), NewFloat(2), NewFloat(-1.5), false},
		{OpAdd, NewString("ab"), NewString("cd"), NewString("abcd"), false},
		{OpAdd, Null, NewInt(1), Null, false},
		{OpMul, NewString("x"), NewInt(2), Null, true},
	}
	for _, c := range cases {
		got, err := Arith(c.op, c.a, c.b)
		if (err != nil) != c.wantErr {
			t.Errorf("Arith(%v,%v,%v): err=%v wantErr=%v", c.op, c.a, c.b, err, c.wantErr)
			continue
		}
		if err == nil && Compare(got, c.want) != 0 {
			t.Errorf("Arith(%v,%v,%v) = %v, want %v", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestNegate(t *testing.T) {
	if v, _ := Negate(NewInt(5)); v.Int() != -5 {
		t.Errorf("Negate(5) = %v", v)
	}
	if v, _ := Negate(NewFloat(2.5)); v.Float() != -2.5 {
		t.Errorf("Negate(2.5) = %v", v)
	}
	if v, _ := Negate(Null); !v.IsNull() {
		t.Error("Negate(NULL) should be NULL")
	}
	if _, err := Negate(NewString("x")); err == nil {
		t.Error("Negate(string) should error")
	}
}

func TestStringRendering(t *testing.T) {
	if got := NewFloat(1.5).String(); got != "1.5" {
		t.Errorf("float String = %q", got)
	}
	if got := NewString("o'brien").SQLLiteral(); got != "'o''brien'" {
		t.Errorf("SQLLiteral = %q", got)
	}
	if got := Null.String(); got != "NULL" {
		t.Errorf("Null String = %q", got)
	}
}

func TestMemSize(t *testing.T) {
	small := NewInt(1).MemSize()
	big := NewString("0123456789").MemSize()
	if big <= small {
		t.Errorf("string MemSize %d should exceed int %d", big, small)
	}
}

func TestDecodeErrors(t *testing.T) {
	bad := [][]byte{
		{},
		{0x02, 1, 2},       // truncated int
		{0x04, 'a'},        // unterminated string
		{0x04, 0x00, 0x7f}, // bad escape
		{0xee},             // bad tag
	}
	for _, b := range bad {
		if _, _, err := Decode(b); err == nil {
			t.Errorf("Decode(%v) should fail", b)
		}
	}
}

func TestEqualValuesBuiltDifferently(t *testing.T) {
	a := NewString("k")
	b := NewString(string([]byte{'k'}))
	if !reflect.DeepEqual(a, b) || !Equal(a, b) {
		t.Error("equal strings built differently must agree on DeepEqual and Equal")
	}
}

// FuzzValueRoundTrip: Decode(Encode(v)) is v for every kind (BOOL encodes
// as INT, a FLOAT keeps its bits, -0 and NewFloat's one NaN included), bytes past the
// value are left alone, strings carrying the escape bytes 0x00/0xff
// included, and a decoded value never aliases its input: overwriting the
// encoding afterwards leaves it unchanged.
func FuzzValueRoundTrip(f *testing.F) {
	f.Add(uint8(KindString), int64(0), 0.0, "plain")
	f.Add(uint8(KindString), int64(0), 0.0, "a\x00b\xff\x00")
	f.Add(uint8(KindString), int64(0), 0.0, "\x00\xff\x00\x00")
	f.Add(uint8(KindString), int64(0), 0.0, "")
	f.Add(uint8(KindFloat), int64(0), math.NaN(), "")
	f.Add(uint8(KindFloat), int64(0), math.Copysign(0, -1), "")
	f.Add(uint8(KindInt), int64(math.MinInt64), 0.0, "")
	f.Add(uint8(KindTime), int64(-1), 0.0, "")
	f.Fuzz(func(t *testing.T, kind uint8, i int64, fl float64, s string) {
		var v Value
		switch Kind(kind % 6) {
		case KindBool:
			v = NewBool(i&1 == 1)
		case KindInt:
			v = NewInt(i)
		case KindFloat:
			v = NewFloat(fl)
		case KindString:
			v = NewString(s)
		case KindTime:
			v = Value{kind: KindTime, i: i}
		}
		want := v
		if v.kind == KindBool {
			want = NewInt(v.i)
		}
		enc := append(v.Encode(nil), 0x07)
		got, rest, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(Encode(%v)): %v", v, err)
		}
		same := func() bool {
			return got.kind == want.kind && got.i == want.i && got.s == want.s
		}
		if !same() || !bytes.Equal(rest, []byte{0x07}) {
			t.Fatalf("Decode(Encode(%v)) = %v, rest %x", want, got, rest)
		}
		for k := range enc {
			enc[k] ^= 0xff
		}
		if !same() {
			t.Fatalf("decoded %v changed to %v with its input", want, got)
		}
	})
}
