package sqltypes

import (
	"fmt"
	"math"
)

// BinaryOp enumerates arithmetic operators usable on values.
type BinaryOp uint8

// Arithmetic operators.
const (
	OpAdd BinaryOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
)

// String returns the SQL spelling of the operator.
func (op BinaryOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	default:
		return "?"
	}
}

// Arith applies op to a and b. NULL operands yield NULL. String + string
// concatenates. INT op INT stays INT (except division by a non-divisor,
// which promotes to FLOAT); any FLOAT operand promotes to FLOAT.
func Arith(op BinaryOp, a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	if op == OpAdd && a.kind == KindString && b.kind == KindString {
		return NewString(a.s + b.s), nil
	}
	if !a.IsNumeric() || !b.IsNumeric() {
		return Null, fmt.Errorf("sqltypes: cannot apply %s to %s and %s", op, a.kind, b.kind)
	}
	if a.kind == KindFloat || b.kind == KindFloat {
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		switch op {
		case OpAdd:
			return NewFloat(af + bf), nil
		case OpSub:
			return NewFloat(af - bf), nil
		case OpMul:
			return NewFloat(af * bf), nil
		case OpDiv:
			if bf == 0 {
				return Null, fmt.Errorf("sqltypes: division by zero")
			}
			return NewFloat(af / bf), nil
		case OpMod:
			if bf == 0 {
				return Null, fmt.Errorf("sqltypes: division by zero")
			}
			return NewFloat(math.Mod(af, bf)), nil
		}
	}
	ai, bi := a.i, b.i
	switch op {
	case OpAdd:
		return NewInt(ai + bi), nil
	case OpSub:
		return NewInt(ai - bi), nil
	case OpMul:
		return NewInt(ai * bi), nil
	case OpDiv:
		if bi == 0 {
			return Null, fmt.Errorf("sqltypes: division by zero")
		}
		if ai%bi == 0 {
			return NewInt(ai / bi), nil
		}
		return NewFloat(float64(ai) / float64(bi)), nil
	case OpMod:
		if bi == 0 {
			return Null, fmt.Errorf("sqltypes: division by zero")
		}
		return NewInt(ai % bi), nil
	}
	return Null, fmt.Errorf("sqltypes: unknown operator %d", op)
}

// Negate returns -v for numeric v.
func Negate(v Value) (Value, error) {
	switch v.kind {
	case KindNull:
		return Null, nil
	case KindInt, KindBool:
		return NewInt(-v.i), nil
	case KindFloat:
		return NewFloat(-v.Float()), nil
	default:
		return Null, fmt.Errorf("sqltypes: cannot negate %s", v.kind)
	}
}
