// Package model defines the logical data model shared by every engine in the
// repository: typed values, property maps, identifiers, graph structure
// interfaces and schemas. It corresponds to the "data structure types"
// component of a database model in the sense of Codd (1980), which the
// surveyed paper uses as its comparison frame.
package model

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
)

// Kind enumerates the primitive value types supported by the model layer.
type Kind uint8

const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a typed scalar. The zero Value is the null value. A string
// lives in s; a bool, int or float shares the one payload word n (0 or 1,
// the int's two's-complement bits, or math.Float64bits), so a Value is 32
// bytes. Values are comparable with == only within the same kind: strings
// compare by content, and floats compare by bit pattern, so 0.0 != -0.0
// and a NaN equals itself. Equal and Compare are the semantic comparisons
// (numeric kinds compare numerically, across kinds too).
type Value struct {
	s    string
	n    uint64
	kind Kind
}

// Null returns the null value.
func Null() Value { return Value{} }

// Bool wraps a bool.
func Bool(v bool) Value {
	if v {
		return Value{kind: KindBool, n: 1}
	}
	return Value{kind: KindBool}
}

// Int wraps an int64.
func Int(v int64) Value { return Value{kind: KindInt, n: uint64(v)} }

// Float wraps a float64.
func Float(v float64) Value { return Value{kind: KindFloat, n: math.Float64bits(v)} }

// String wraps a string.
func Str(v string) Value { return Value{kind: KindString, s: v} }

// Of converts a native Go value into a Value. Unsupported types yield null.
func Of(v any) Value {
	switch x := v.(type) {
	case nil:
		return Null()
	case bool:
		return Bool(x)
	case int:
		return Int(int64(x))
	case int32:
		return Int(int64(x))
	case int64:
		return Int(x)
	case uint32:
		return Int(int64(x))
	case float32:
		return Float(float64(x))
	case float64:
		return Float(x)
	case string:
		return Str(x)
	case Value:
		return x
	default:
		return Null()
	}
}

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsBool returns the boolean payload; ok is false for non-bool values.
func (v Value) AsBool() (val, ok bool) { return v.b(), v.kind == KindBool }

// AsInt returns the integer payload; ok is false for non-int values.
func (v Value) AsInt() (int64, bool) { return v.i(), v.kind == KindInt }

// AsFloat returns a float for int or float values.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindFloat:
		return v.f(), true
	case KindInt:
		return float64(v.i()), true
	}
	return 0, false
}

// AsString returns the string payload; ok is false for non-string values.
func (v Value) AsString() (string, bool) { return v.s, v.kind == KindString }

// b, i and f decode the payload word whatever the kind; callers check the
// kind first.
func (v Value) b() bool    { return v.n != 0 }
func (v Value) i() int64   { return int64(v.n) }
func (v Value) f() float64 { return math.Float64frombits(v.n) }

// Native returns the value as a plain Go value (nil, bool, int64, float64 or
// string).
func (v Value) Native() any {
	switch v.kind {
	case KindBool:
		return v.b()
	case KindInt:
		return v.i()
	case KindFloat:
		return v.f()
	case KindString:
		return v.s
	default:
		return nil
	}
}

// String renders the value for display.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindBool:
		return strconv.FormatBool(v.b())
	case KindInt:
		return strconv.FormatInt(v.i(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.f(), 'g', -1, 64)
	case KindString:
		return v.s
	default:
		return "?"
	}
}

// Equal reports semantic equality: numeric kinds compare numerically, other
// kinds must match exactly.
func (v Value) Equal(o Value) bool { return v.Compare(o) == 0 }

// Compare orders two values. Values of different non-numeric kinds order by
// kind tag (null < bool < numeric < string); int and float compare
// numerically. The result is -1, 0 or +1.
func (v Value) Compare(o Value) int {
	va, aok := v.AsFloat()
	vb, bok := o.AsFloat()
	if aok && bok {
		switch {
		case va < vb:
			return -1
		case va > vb:
			return 1
		default:
			// Distinguish equal-magnitude int vs float only by payload
			// equality; 1 == 1.0 in this model.
			return 0
		}
	}
	if v.kind != o.kind {
		if rank(v.kind) < rank(o.kind) {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindNull:
		return 0
	case KindBool:
		switch {
		case v.n == o.n:
			return 0
		case v.n == 0:
			return -1
		default:
			return 1
		}
	case KindString:
		switch {
		case v.s < o.s:
			return -1
		case v.s > o.s:
			return 1
		default:
			return 0
		}
	}
	return 0
}

// rank collapses int and float to a single numeric rank for cross-kind order.
func rank(k Kind) int {
	switch k {
	case KindNull:
		return 0
	case KindBool:
		return 1
	case KindInt, KindFloat:
		return 2
	case KindString:
		return 3
	}
	return 4
}

// EncodeKey renders the value as an order-preserving byte key, suitable for
// ordered indexes: bytewise comparison of two encoded values agrees with
// Compare. The layout is a rank tag byte followed by a payload.
func (v Value) EncodeKey(dst []byte) []byte {
	dst = append(dst, byte(rank(v.kind)))
	switch v.kind {
	case KindBool:
		dst = append(dst, byte(v.n))
	case KindInt, KindFloat:
		f, _ := v.AsFloat()
		bits := math.Float64bits(f)
		// Flip so that bytewise order equals numeric order.
		if bits&(1<<63) != 0 {
			bits = ^bits
		} else {
			bits |= 1 << 63
		}
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], bits)
		dst = append(dst, buf[:]...)
	case KindString:
		dst = append(dst, v.s...)
	}
	return dst
}

// MarshalBinary encodes the value for storage (not order-preserving).
func (v Value) MarshalBinary() ([]byte, error) { return v.AppendBinary(nil) }

// AppendBinary appends the MarshalBinary encoding of the value to dst and
// returns the extended slice: a kind tag byte, then one byte for a bool,
// eight big-endian bytes for an int or float, the bytes of a string. It is
// the one value encoder; an invalid kind returns dst unchanged and an
// error.
func (v Value) AppendBinary(dst []byte) ([]byte, error) {
	switch v.kind {
	case KindNull:
		return append(dst, byte(KindNull)), nil
	case KindBool:
		return append(dst, byte(KindBool), byte(v.n)), nil
	case KindInt, KindFloat:
		return binary.BigEndian.AppendUint64(append(dst, byte(v.kind)), v.n), nil
	case KindString:
		return append(append(dst, byte(KindString)), v.s...), nil
	}
	return dst, fmt.Errorf("model: cannot marshal value of kind %v", v.kind)
}

// UnmarshalValue decodes a value produced by MarshalBinary.
func UnmarshalValue(data []byte) (Value, error) {
	if len(data) == 0 {
		return Value{}, fmt.Errorf("model: empty value encoding")
	}
	switch Kind(data[0]) {
	case KindNull:
		return Null(), nil
	case KindBool:
		if len(data) != 2 {
			return Value{}, fmt.Errorf("model: bad bool encoding length %d", len(data))
		}
		return Bool(data[1] == 1), nil
	case KindInt, KindFloat:
		if len(data) != 9 {
			return Value{}, fmt.Errorf("model: bad %v encoding length %d", Kind(data[0]), len(data))
		}
		return Value{kind: Kind(data[0]), n: binary.BigEndian.Uint64(data[1:])}, nil
	case KindString:
		return Str(string(data[1:])), nil
	}
	return Value{}, fmt.Errorf("model: unknown value kind tag %d", data[0])
}
