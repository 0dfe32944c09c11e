// Package sqltypes implements the typed value system shared by the SQL
// engine and the SQLCM monitoring framework: datums, comparison, arithmetic,
// hashing and a canonical binary encoding used for index keys and signature
// computation.
package sqltypes

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the dynamic types a Value can carry.
type Kind uint8

// The supported value kinds. KindNull sorts before every other kind;
// otherwise values of different kinds compare by kind order.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindTime
	KindBlob
)

// String returns the SQL-facing name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindBool:
		return "BOOL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	case KindTime:
		return "DATETIME"
	case KindBlob:
		return "BLOB"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// KindFromName parses a SQL type name (case-insensitive) into a Kind.
func KindFromName(name string) (Kind, error) {
	switch strings.ToUpper(name) {
	case "NULL":
		return KindNull, nil
	case "BOOL", "BOOLEAN", "BIT":
		return KindBool, nil
	case "INT", "INTEGER", "BIGINT", "SMALLINT":
		return KindInt, nil
	case "FLOAT", "REAL", "DOUBLE", "DECIMAL", "NUMERIC":
		return KindFloat, nil
	case "STRING", "TEXT", "VARCHAR", "CHAR", "NVARCHAR":
		return KindString, nil
	case "DATETIME", "TIMESTAMP", "DATE":
		return KindTime, nil
	case "BLOB", "BYTES", "VARBINARY":
		return KindBlob, nil
	default:
		return KindNull, fmt.Errorf("sqltypes: unknown type name %q", name)
	}
}

// Value is a dynamically typed SQL datum. The zero Value is NULL.
type Value struct {
	kind Kind
	i    int64   // KindBool (0/1), KindInt, KindTime (unix nanos)
	f    float64 // KindFloat
	s    string  // KindString
	b    []byte  // KindBlob
}

// Null is the NULL value.
var Null = Value{}

// NewBool returns a BOOL value.
func NewBool(v bool) Value {
	i := int64(0)
	if v {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// NewInt returns an INT value.
func NewInt(v int64) Value { return Value{kind: KindInt, i: v} }

// NewFloat returns a FLOAT value.
func NewFloat(v float64) Value { return Value{kind: KindFloat, f: v} }

// NewString returns a STRING value.
func NewString(v string) Value { return Value{kind: KindString, s: v} }

// NewTime returns a DATETIME value with nanosecond precision.
func NewTime(t time.Time) Value { return Value{kind: KindTime, i: t.UnixNano()} }

// NewBlob returns a BLOB value. The caller must not mutate b afterwards.
func NewBlob(b []byte) Value { return Value{kind: KindBlob, b: b} }

// Kind reports the value's dynamic type.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Bool returns the boolean payload; valid only for KindBool.
func (v Value) Bool() bool { return v.i != 0 }

// Int returns the integer payload; valid only for KindInt.
func (v Value) Int() int64 { return v.i }

// Float returns the float payload; valid only for KindFloat.
func (v Value) Float() float64 { return v.f }

// Str returns the string payload; valid only for KindString.
func (v Value) Str() string { return v.s }

// Time returns the time payload; valid only for KindTime.
func (v Value) Time() time.Time { return time.Unix(0, v.i) }

// Blob returns the blob payload; valid only for KindBlob. The caller must
// not mutate the returned slice.
func (v Value) Blob() []byte { return v.b }

// AsFloat coerces a numeric value (INT, FLOAT or BOOL) to float64.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindInt, KindBool:
		return float64(v.i), true
	case KindFloat:
		return v.f, true
	default:
		return 0, false
	}
}

// AsInt coerces a numeric value to int64 (floats truncate toward zero).
func (v Value) AsInt() (int64, bool) {
	switch v.kind {
	case KindInt, KindBool:
		return v.i, true
	case KindFloat:
		return int64(v.f), true
	default:
		return 0, false
	}
}

// IsNumeric reports whether the value participates in arithmetic.
func (v Value) IsNumeric() bool {
	return v.kind == KindInt || v.kind == KindFloat || v.kind == KindBool
}

// String renders the value for display.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindBool:
		if v.i != 0 {
			return "TRUE"
		}
		return "FALSE"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	case KindTime:
		return v.Time().UTC().Format("2006-01-02 15:04:05.000000")
	case KindBlob:
		return fmt.Sprintf("x'%x'", v.b)
	default:
		return "?"
	}
}

// SQLLiteral renders the value as a SQL literal (strings quoted).
func (v Value) SQLLiteral() string {
	switch v.kind {
	case KindString:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case KindTime:
		return "'" + v.String() + "'"
	default:
		return v.String()
	}
}

// Compare orders two values. NULL sorts first; values of different kinds
// order by kind except that INT and FLOAT compare numerically. Returns
// -1, 0 or +1.
func Compare(a, b Value) int {
	if a.kind == KindNull || b.kind == KindNull {
		switch {
		case a.kind == KindNull && b.kind == KindNull:
			return 0
		case a.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	// Numeric cross-kind comparison.
	if a.IsNumeric() && b.IsNumeric() {
		if a.kind == KindFloat || b.kind == KindFloat {
			af, _ := a.AsFloat()
			bf, _ := b.AsFloat()
			switch {
			case af < bf:
				return -1
			case af > bf:
				return 1
			default:
				return 0
			}
		}
		switch {
		case a.i < b.i:
			return -1
		case a.i > b.i:
			return 1
		default:
			return 0
		}
	}
	if a.kind != b.kind {
		if a.kind < b.kind {
			return -1
		}
		return 1
	}
	switch a.kind {
	case KindString:
		return strings.Compare(a.s, b.s)
	case KindTime:
		switch {
		case a.i < b.i:
			return -1
		case a.i > b.i:
			return 1
		default:
			return 0
		}
	case KindBlob:
		return compareBytes(a.b, b.b)
	default:
		return 0
	}
}

func compareBytes(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}

// Equal reports whether a and b compare equal (NULL equals NULL here; SQL
// tri-state NULL semantics are applied by the expression evaluators).
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Hash returns a 64-bit FNV-1a hash of the value, consistent with Equal for
// same-kind values and for INT/FLOAT values that are exactly representable
// in both (integers hash as integers).
func (v Value) Hash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(b byte) { h = (h ^ uint64(b)) * prime }
	mix(byte(hashKindClass(v.kind)))
	switch v.kind {
	case KindNull:
	case KindBool, KindInt, KindTime:
		u := uint64(v.i)
		for i := 0; i < 8; i++ {
			mix(byte(u >> (8 * i)))
		}
	case KindFloat:
		// Hash integral floats identically to the equivalent int so that
		// Compare-equal numerics hash equal.
		if v.f == math.Trunc(v.f) && v.f >= math.MinInt64 && v.f <= math.MaxInt64 {
			u := uint64(int64(v.f))
			for i := 0; i < 8; i++ {
				mix(byte(u >> (8 * i)))
			}
		} else {
			u := math.Float64bits(v.f)
			for i := 0; i < 8; i++ {
				mix(byte(u >> (8 * i)))
			}
		}
	case KindString:
		for i := 0; i < len(v.s); i++ {
			mix(v.s[i])
		}
	case KindBlob:
		for _, b := range v.b {
			mix(b)
		}
	}
	return h
}

// hashKindClass merges kinds that can compare equal cross-kind (numerics)
// into one hash class.
func hashKindClass(k Kind) Kind {
	switch k {
	case KindBool, KindInt, KindFloat:
		return KindInt
	default:
		return k
	}
}

// MemSize estimates the in-memory footprint of the value in bytes. LATs use
// it to enforce byte-based size limits.
func (v Value) MemSize() int {
	const base = 40 // struct header
	switch v.kind {
	case KindString:
		return base + len(v.s)
	case KindBlob:
		return base + len(v.b)
	default:
		return base
	}
}

// Encode appends a canonical, order-preserving binary encoding of v to dst.
// The encoding is self-delimiting so composite keys can be concatenated:
// byte-wise comparison of encodings agrees with Compare for same-kind values
// and for mixed INT/FLOAT numerics.
func (v Value) Encode(dst []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, 0x00)
	case KindBool, KindInt:
		dst = append(dst, 0x02)
		return encodeOrderedInt(dst, v.i)
	case KindFloat:
		dst = append(dst, 0x03)
		return encodeOrderedFloat(dst, v.f)
	case KindString:
		dst = append(dst, 0x04)
		return encodeOrderedBytes(dst, v.s)
	case KindTime:
		dst = append(dst, 0x05)
		return encodeOrderedInt(dst, v.i)
	case KindBlob:
		dst = append(dst, 0x06)
		return encodeOrderedBytes(dst, v.b)
	default:
		return append(dst, 0xff)
	}
}

// Decode reads one encoded value from src, returning the value and the
// remaining bytes.
func Decode(src []byte) (Value, []byte, error) {
	if len(src) == 0 {
		return Null, nil, fmt.Errorf("sqltypes: decode on empty input")
	}
	tag := src[0]
	src = src[1:]
	switch tag {
	case 0x00:
		return Null, src, nil
	case 0x02:
		i, rest, err := decodeOrderedInt(src)
		if err != nil {
			return Null, nil, err
		}
		return NewInt(i), rest, nil
	case 0x03:
		f, rest, err := decodeOrderedFloat(src)
		if err != nil {
			return Null, nil, err
		}
		return NewFloat(f), rest, nil
	case 0x04:
		b, rest, err := decodeOrderedBytes(src)
		if err != nil {
			return Null, nil, err
		}
		return NewString(string(b)), rest, nil
	case 0x05:
		i, rest, err := decodeOrderedInt(src)
		if err != nil {
			return Null, nil, err
		}
		return Value{kind: KindTime, i: i}, rest, nil
	case 0x06:
		b, rest, err := decodeOrderedBytes(src)
		if err != nil {
			return Null, nil, err
		}
		return NewBlob(b), rest, nil
	default:
		return Null, nil, fmt.Errorf("sqltypes: bad value tag 0x%02x", tag)
	}
}

func encodeOrderedInt(dst []byte, i int64) []byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(i)^(1<<63))
	return append(dst, buf[:]...)
}

func decodeOrderedInt(src []byte) (int64, []byte, error) {
	if len(src) < 8 {
		return 0, nil, fmt.Errorf("sqltypes: truncated int encoding")
	}
	u := binary.BigEndian.Uint64(src[:8]) ^ (1 << 63)
	return int64(u), src[8:], nil
}

func encodeOrderedFloat(dst []byte, f float64) []byte {
	u := math.Float64bits(f)
	if u&(1<<63) != 0 {
		u = ^u
	} else {
		u |= 1 << 63
	}
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], u)
	return append(dst, buf[:]...)
}

func decodeOrderedFloat(src []byte) (float64, []byte, error) {
	if len(src) < 8 {
		return 0, nil, fmt.Errorf("sqltypes: truncated float encoding")
	}
	u := binary.BigEndian.Uint64(src[:8])
	if u&(1<<63) != 0 {
		u &^= 1 << 63
	} else {
		u = ^u
	}
	return math.Float64frombits(u), src[8:], nil
}

// encodeOrderedBytes escapes 0x00 as 0x00 0xff and terminates with
// 0x00 0x00, preserving lexicographic order. Strings are read in place.
func encodeOrderedBytes[B string | []byte](dst []byte, b B) []byte {
	start := 0
	for i := 0; i < len(b); i++ {
		if b[i] == 0x00 {
			dst = append(append(dst, b[start:i]...), 0x00, 0xff)
			start = i + 1
		}
	}
	return append(append(dst, b[start:]...), 0x00, 0x00)
}

func decodeOrderedBytes(src []byte) ([]byte, []byte, error) {
	var out []byte
	for i := 0; i < len(src); i++ {
		c := src[i]
		if c != 0x00 {
			out = append(out, c)
			continue
		}
		if i+1 >= len(src) {
			return nil, nil, fmt.Errorf("sqltypes: truncated bytes encoding")
		}
		switch src[i+1] {
		case 0x00:
			return out, src[i+2:], nil
		case 0xff:
			out = append(out, 0x00)
			i++
		default:
			return nil, nil, fmt.Errorf("sqltypes: bad escape in bytes encoding")
		}
	}
	return nil, nil, fmt.Errorf("sqltypes: unterminated bytes encoding")
}

// EncodeKey encodes a composite key of values into a single order-preserving
// byte string.
func EncodeKey(vals ...Value) []byte { return AppendKey(nil, vals...) }

// AppendKey appends the composite key encoding of vals to dst, so a caller
// with a stack buffer encodes without allocating.
func AppendKey(dst []byte, vals ...Value) []byte {
	for _, v := range vals {
		dst = v.Encode(dst)
	}
	return dst
}

// DecodeKey decodes a composite key produced by EncodeKey.
func DecodeKey(src []byte) ([]Value, error) {
	var out []Value
	for len(src) > 0 {
		v, rest, err := Decode(src)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		src = rest
	}
	return out, nil
}
