// Package sqltypes implements the typed value system shared by the SQL
// engine and the SQLCM monitoring framework: datums, comparison, arithmetic,
// hashing and a canonical binary encoding used for index keys and signature
// computation.
package sqltypes

import (
	"bytes"
	"cmp"
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
	default:
		return KindNull, fmt.Errorf("sqltypes: unknown type name %q", name)
	}
}

// Value is a dynamically typed SQL datum. The zero Value is NULL. It is 32
// bytes: every tuple, result row, parameter and LAT cell copies it.
type Value struct {
	kind Kind
	i    int64  // KindBool (0/1), KindInt, KindTime (unix nanos), KindFloat (math.Float64bits)
	s    string // KindString
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

// NewFloat returns a FLOAT value. Every NaN becomes math.NaN(), whose
// encoding sorts above +Inf: a NaN with its sign bit set, which x86
// arithmetic makes, would encode below -Inf. -0 becomes +0, which it
// equals under Compare, so the two share one encoding.
func NewFloat(v float64) Value {
	switch {
	case v != v:
		v = math.NaN()
	case v == 0:
		v = 0
	}
	return Value{kind: KindFloat, i: int64(math.Float64bits(v))}
}

// NewString returns a STRING value.
func NewString(v string) Value { return Value{kind: KindString, s: v} }

// NewTime returns a DATETIME value with nanosecond precision.
func NewTime(t time.Time) Value { return Value{kind: KindTime, i: t.UnixNano()} }

// Kind reports the value's dynamic type.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Bool returns the boolean payload; valid only for KindBool.
func (v Value) Bool() bool { return v.i != 0 }

// Int returns the integer payload; valid only for KindInt.
func (v Value) Int() int64 { return v.i }

// Float returns the float payload; valid only for KindFloat.
func (v Value) Float() float64 { return math.Float64frombits(uint64(v.i)) }

// Str returns the string payload; valid only for KindString.
func (v Value) Str() string { return v.s }

// Time returns the time payload; valid only for KindTime.
func (v Value) Time() time.Time { return time.Unix(0, v.i) }

// AsFloat coerces a numeric value (INT, FLOAT or BOOL) to float64.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindInt, KindBool:
		return float64(v.i), true
	case KindFloat:
		return v.Float(), true
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
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case KindString:
		return v.s
	case KindTime:
		return v.Time().UTC().Format("2006-01-02 15:04:05.000000")
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
// order by kind except that INT (BOOL) and FLOAT compare numerically, and
// exactly: INT 2^53+1 lies above FLOAT 2^53, MaxInt64 below FLOAT 2^63.
// NaN equals NaN and sorts above every other number, +Inf included, as
// Encode orders it. Returns -1, 0 or +1.
func Compare(a, b Value) int {
	switch an, bn := a.IsNumeric(), b.IsNumeric(); {
	case a.kind == b.kind && a.kind != KindFloat && a.kind != KindString:
		return cmp.Compare(a.i, b.i) // NULL, BOOL, INT, DATETIME
	case !an || !bn:
		if a.kind != b.kind {
			return cmp.Compare(a.kind, b.kind)
		}
		return strings.Compare(a.s, b.s)
	case a.kind != KindFloat && b.kind != KindFloat:
		return cmp.Compare(a.i, b.i)
	case a.kind != KindFloat:
		return compareIntFloat(a.i, b.Float())
	case b.kind != KindFloat:
		return -compareIntFloat(b.i, a.Float())
	}
	af, bf := a.Float(), b.Float()
	if af != af || bf != bf {
		af, bf = bf, af // cmp sorts NaN lowest; swapped, it sorts highest
	}
	return cmp.Compare(af, bf)
}

// compareIntFloat orders i against f exactly. Within ±2^53 float64(i) is
// exact. Beyond it, a float outside [-2^63, 2^63) is decided by its sign;
// one inside is compared by its floor, which int64 holds, and then by its
// fraction.
func compareIntFloat(i int64, f float64) int {
	switch {
	case f != f:
		return -1 // NaN sorts above every number
	case -1<<53 <= i && i <= 1<<53:
		return cmp.Compare(float64(i), f)
	case f >= 0x1p63:
		return -1
	case f < -0x1p63:
		return 1
	}
	fl := math.Floor(f)
	if c := cmp.Compare(i, int64(fl)); c != 0 || fl == f {
		return c
	}
	return -1
}

// Equal reports whether a and b compare equal (NULL equals NULL here; SQL
// tri-state NULL semantics are applied by the expression evaluators).
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// MemSize estimates the in-memory footprint of the value in bytes. LATs use
// it to enforce byte-based size limits.
func (v Value) MemSize() int {
	const base = 40 // struct header
	switch v.kind {
	case KindString:
		return base + len(v.s)
	default:
		return base
	}
}

// Encode appends a canonical, order-preserving binary encoding of v to dst.
// The encoding is self-delimiting so composite keys can be concatenated:
// byte-wise comparison of encodings agrees with Compare for values of one
// kind (BOOL and INT share one). Across kinds it orders by tag, so every
// INT sorts below every FLOAT: an index column's keys all hold the
// column's kind, and an index seek converts its bounds to that kind first.
func (v Value) Encode(dst []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, 0x00)
	case KindBool, KindInt:
		dst = append(dst, 0x02)
		return encodeOrderedInt(dst, v.i)
	case KindFloat:
		dst = append(dst, 0x03)
		return encodeOrderedFloat(dst, v.Float())
	case KindString:
		dst = append(dst, 0x04)
		return encodeOrderedBytes(dst, v.s)
	case KindTime:
		dst = append(dst, 0x05)
		return encodeOrderedInt(dst, v.i)
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
		return NewString(string(b)), rest, nil // the one copy
	case 0x05:
		i, rest, err := decodeOrderedInt(src)
		if err != nil {
			return Null, nil, err
		}
		return Value{kind: KindTime, i: i}, rest, nil
	default:
		return Null, nil, fmt.Errorf("sqltypes: bad value tag 0x%02x", tag)
	}
}

// Skip returns src past its first encoded value, checked as Decode checks
// it, without building the value: a string is not copied, and a valid
// encoding costs no allocation. A reader skips the columns it does not
// read.
func Skip(src []byte) ([]byte, error) {
	if len(src) == 0 {
		return nil, fmt.Errorf("sqltypes: decode on empty input")
	}
	tag := src[0]
	src = src[1:]
	switch tag {
	case 0x00:
		return src, nil
	case 0x02, 0x05:
		_, rest, err := decodeOrderedInt(src)
		return rest, err
	case 0x03:
		_, rest, err := decodeOrderedFloat(src)
		return rest, err
	case 0x04:
		return skipOrderedBytes(src)
	default:
		return nil, fmt.Errorf("sqltypes: bad value tag 0x%02x", tag)
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
// 0x00 0x00, preserving lexicographic order. The string is read in place.
func encodeOrderedBytes(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == 0x00 {
			dst = append(append(dst, s[start:i]...), 0x00, 0xff)
			start = i + 1
		}
	}
	return append(append(dst, s[start:]...), 0x00, 0x00)
}

// decodeOrderedBytes reads one encodeOrderedBytes payload off src. An
// escape-free payload is returned in place, aliasing src; one with escapes
// is unescaped into a new slice. Callers copy before keeping it.
func decodeOrderedBytes(src []byte) ([]byte, []byte, error) {
	var out []byte // nil until the first escape
	for start := 0; ; {
		i := bytes.IndexByte(src[start:], 0x00)
		if i < 0 {
			return nil, nil, fmt.Errorf("sqltypes: unterminated bytes encoding")
		}
		i += start
		if i+1 >= len(src) {
			return nil, nil, fmt.Errorf("sqltypes: truncated bytes encoding")
		}
		switch src[i+1] {
		case 0x00:
			if out == nil {
				return src[:i], src[i+2:], nil
			}
			return append(out, src[start:i]...), src[i+2:], nil
		case 0xff:
			out = append(append(out, src[start:i]...), 0x00)
			start = i + 2
		default:
			return nil, nil, fmt.Errorf("sqltypes: bad escape in bytes encoding")
		}
	}
}

// skipOrderedBytes returns src past one encodeOrderedBytes payload,
// failing where decodeOrderedBytes fails.
func skipOrderedBytes(src []byte) ([]byte, error) {
	for start := 0; ; {
		i := bytes.IndexByte(src[start:], 0x00)
		if i < 0 {
			return nil, fmt.Errorf("sqltypes: unterminated bytes encoding")
		}
		i += start
		if i+1 >= len(src) {
			return nil, fmt.Errorf("sqltypes: truncated bytes encoding")
		}
		switch src[i+1] {
		case 0x00:
			return src[i+2:], nil
		case 0xff:
			start = i + 2
		default:
			return nil, fmt.Errorf("sqltypes: bad escape in bytes encoding")
		}
	}
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
