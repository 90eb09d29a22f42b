package model

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"testing"
	"unsafe"
)

// refValue is the 48-byte Value layout that kept a separate field per
// payload kind. It is the oracle for the packed layout: every exported
// method of Value must answer exactly as refValue's twin does.
type refValue struct {
	kind Kind
	i    int64
	f    float64
	s    string
	b    bool
}

func refOf(v any) refValue {
	switch x := v.(type) {
	case bool:
		return refValue{kind: KindBool, b: x}
	case int:
		return refValue{kind: KindInt, i: int64(x)}
	case int32:
		return refValue{kind: KindInt, i: int64(x)}
	case int64:
		return refValue{kind: KindInt, i: x}
	case uint32:
		return refValue{kind: KindInt, i: int64(x)}
	case float32:
		return refValue{kind: KindFloat, f: float64(x)}
	case float64:
		return refValue{kind: KindFloat, f: x}
	case string:
		return refValue{kind: KindString, s: x}
	}
	return refValue{}
}

func (v refValue) AsFloat() (float64, bool) {
	switch v.kind {
	case KindFloat:
		return v.f, true
	case KindInt:
		return float64(v.i), true
	}
	return 0, false
}

func (v refValue) Native() any {
	switch v.kind {
	case KindBool:
		return v.b
	case KindInt:
		return v.i
	case KindFloat:
		return v.f
	case KindString:
		return v.s
	}
	return nil
}

func (v refValue) String() string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindBool:
		return strconv.FormatBool(v.b)
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	}
	return "?"
}

func (v refValue) Compare(o refValue) int {
	va, aok := v.AsFloat()
	vb, bok := o.AsFloat()
	if aok && bok {
		switch {
		case va < vb:
			return -1
		case va > vb:
			return 1
		}
		return 0
	}
	if v.kind != o.kind {
		if rank(v.kind) < rank(o.kind) {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindBool:
		switch {
		case v.b == o.b:
			return 0
		case !v.b:
			return -1
		}
		return 1
	case KindString:
		switch {
		case v.s < o.s:
			return -1
		case v.s > o.s:
			return 1
		}
	}
	return 0
}

func (v refValue) EncodeKey(dst []byte) []byte {
	dst = append(dst, byte(rank(v.kind)))
	switch v.kind {
	case KindBool:
		if v.b {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	case KindInt, KindFloat:
		f, _ := v.AsFloat()
		bits := math.Float64bits(f)
		if bits&(1<<63) != 0 {
			bits = ^bits
		} else {
			bits |= 1 << 63
		}
		dst = binary.BigEndian.AppendUint64(dst, bits)
	case KindString:
		dst = append(dst, v.s...)
	}
	return dst
}

func (v refValue) AppendBinary(dst []byte) ([]byte, error) {
	switch v.kind {
	case KindNull:
		return append(dst, byte(KindNull)), nil
	case KindBool:
		if v.b {
			return append(dst, byte(KindBool), 1), nil
		}
		return append(dst, byte(KindBool), 0), nil
	case KindInt:
		return binary.BigEndian.AppendUint64(append(dst, byte(KindInt)), uint64(v.i)), nil
	case KindFloat:
		return binary.BigEndian.AppendUint64(append(dst, byte(KindFloat)), math.Float64bits(v.f)), nil
	case KindString:
		return append(append(dst, byte(KindString)), v.s...), nil
	}
	return dst, fmt.Errorf("model: cannot marshal value of kind %v", v.kind)
}

func refUnmarshal(data []byte) (refValue, error) {
	if len(data) == 0 {
		return refValue{}, fmt.Errorf("model: empty value encoding")
	}
	switch Kind(data[0]) {
	case KindNull:
		return refValue{}, nil
	case KindBool:
		if len(data) != 2 {
			return refValue{}, fmt.Errorf("model: bad bool encoding length %d", len(data))
		}
		return refValue{kind: KindBool, b: data[1] == 1}, nil
	case KindInt:
		if len(data) != 9 {
			return refValue{}, fmt.Errorf("model: bad int encoding length %d", len(data))
		}
		return refValue{kind: KindInt, i: int64(binary.BigEndian.Uint64(data[1:]))}, nil
	case KindFloat:
		if len(data) != 9 {
			return refValue{}, fmt.Errorf("model: bad float encoding length %d", len(data))
		}
		return refValue{kind: KindFloat, f: math.Float64frombits(binary.BigEndian.Uint64(data[1:]))}, nil
	case KindString:
		return refValue{kind: KindString, s: string(data[1:])}, nil
	}
	return refValue{}, fmt.Errorf("model: unknown value kind tag %d", data[0])
}

// fuzzPair builds the same value in both layouts. kind 5 stands for an
// out-of-range tag, which only the marshal error path accepts.
func fuzzPair(kind uint8, i int64, fbits uint64, s string) (Value, refValue) {
	switch kind % 6 {
	case 0:
		return Null(), refValue{}
	case 1:
		return Bool(i&1 == 1), refValue{kind: KindBool, b: i&1 == 1}
	case 2:
		return Int(i), refValue{kind: KindInt, i: i}
	case 3:
		f := math.Float64frombits(fbits)
		return Float(f), refValue{kind: KindFloat, f: f}
	case 4:
		return Str(s), refValue{kind: KindString, s: s}
	}
	return Value{kind: 9}, refValue{kind: 9}
}

// sameNative compares two Native results, floats by bit pattern so that a
// NaN matches itself.
func sameNative(a, b any) bool {
	fa, aok := a.(float64)
	fb, bok := b.(float64)
	if aok || bok {
		return aok && bok && math.Float64bits(fa) == math.Float64bits(fb)
	}
	return a == b
}

// checkSame fails unless v answers every accessor as r does.
func checkSame(t *testing.T, what string, v Value, r refValue) {
	t.Helper()
	if v.Kind() != r.kind || v.IsNull() != (r.kind == KindNull) {
		t.Fatalf("%s: kind %v, want %v", what, v.Kind(), r.kind)
	}
	if b, ok := v.AsBool(); ok != (r.kind == KindBool) || ok && b != r.b {
		t.Fatalf("%s: AsBool = %v, %v; want %v", what, b, ok, r.b)
	}
	if i, ok := v.AsInt(); ok != (r.kind == KindInt) || ok && i != r.i {
		t.Fatalf("%s: AsInt = %v, %v; want %v", what, i, ok, r.i)
	}
	f, ok := v.AsFloat()
	rf, rok := r.AsFloat()
	if ok != rok || math.Float64bits(f) != math.Float64bits(rf) {
		t.Fatalf("%s: AsFloat = %v, %v; want %v, %v", what, f, ok, rf, rok)
	}
	if s, ok := v.AsString(); ok != (r.kind == KindString) || ok && s != r.s {
		t.Fatalf("%s: AsString = %q, %v; want %q", what, s, ok, r.s)
	}
	if !sameNative(v.Native(), r.Native()) {
		t.Fatalf("%s: Native = %#v, want %#v", what, v.Native(), r.Native())
	}
	if v.String() != r.String() {
		t.Fatalf("%s: String = %q, want %q", what, v.String(), r.String())
	}
}

func checkEncodings(t *testing.T, what string, v Value, r refValue) {
	t.Helper()
	prefix := []byte{0xAA}
	if got, want := v.EncodeKey(prefix), r.EncodeKey(prefix); !bytes.Equal(got, want) {
		t.Fatalf("%s: EncodeKey = %x, want %x", what, got, want)
	}
	got, err := v.AppendBinary(prefix)
	want, rerr := r.AppendBinary(prefix)
	if !bytes.Equal(got, want) || (err == nil) != (rerr == nil) {
		t.Fatalf("%s: AppendBinary = %x, %v; want %x, %v", what, got, err, want, rerr)
	}
	if m, _ := v.MarshalBinary(); !bytes.Equal(m, want[1:]) {
		t.Fatalf("%s: MarshalBinary = %x, want %x", what, m, want[1:])
	}
	if err != nil {
		return
	}
	back, err := UnmarshalValue(got[1:])
	if err != nil {
		t.Fatalf("%s: UnmarshalValue(%x): %v", what, got[1:], err)
	}
	checkSame(t, what+" round trip", back, r)
}

func FuzzValueMatchesReference(f *testing.F) {
	negZero := math.Float64bits(math.Copysign(0, -1))
	for _, seed := range []struct {
		kind  uint8
		i     int64
		fbits uint64
		s     string
	}{
		{0, 0, 0, ""},
		{1, 0, 0, ""},
		{1, 1, 0, ""},
		{2, 0, 0, ""},
		{2, math.MinInt64, 0, ""},
		{2, math.MaxInt64, 0, ""},
		{2, 1<<53 + 1, 0, ""},
		{2, -1, 0, ""},
		{3, 0, 0, ""},
		{3, 0, negZero, ""},
		{3, 0, math.Float64bits(math.NaN()), ""},
		{3, 0, math.Float64bits(math.Inf(1)), ""},
		{3, 0, math.Float64bits(math.Inf(-1)), ""},
		{3, 0, math.Float64bits(1 << 53), ""},
		{3, 0, math.Float64bits(2.5), ""},
		{4, 0, 0, ""},
		{4, 0, 0, "hello"},
		{5, 0, 0, ""},
	} {
		// Each seed meets an int 1, a float 1 and the seed's own value.
		f.Add(seed.kind, seed.i, seed.fbits, seed.s, uint8(2), int64(1), uint64(0), "")
		f.Add(seed.kind, seed.i, seed.fbits, seed.s, uint8(3), int64(0), math.Float64bits(1), "")
		f.Add(seed.kind, seed.i, seed.fbits, seed.s, seed.kind, seed.i, seed.fbits, seed.s)
	}
	f.Add(uint8(3), int64(0), uint64(0), "", uint8(3), int64(0), negZero, "")
	f.Add(uint8(2), int64(1<<53+1), uint64(0), "", uint8(3), int64(0), math.Float64bits(1<<53), "")
	f.Add(uint8(1), int64(0), uint64(0), "", uint8(1), int64(1), uint64(0), "")
	f.Fuzz(func(t *testing.T, ka uint8, ia int64, fa uint64, sa string, kb uint8, ib int64, fb uint64, sb string) {
		a, ra := fuzzPair(ka, ia, fa, sa)
		b, rb := fuzzPair(kb, ib, fb, sb)
		checkSame(t, "a", a, ra)
		checkSame(t, "b", b, rb)
		checkEncodings(t, "a", a, ra)
		checkEncodings(t, "b", b, rb)
		if got, want := a.Compare(b), ra.Compare(rb); got != want {
			t.Fatalf("Compare(%v, %v) = %d, want %d", a, b, got, want)
		}
		if got, want := a.Equal(b), ra.Compare(rb) == 0; got != want {
			t.Fatalf("Equal(%v, %v) = %v, want %v", a, b, got, want)
		}
		// == within one kind: strings by content, floats by bit pattern,
		// everything else as the reference's ==.
		if a.Kind() == b.Kind() {
			want := ra == rb
			if a.Kind() == KindFloat {
				want = math.Float64bits(ra.f) == math.Float64bits(rb.f)
			}
			if got := a == b; got != want {
				t.Fatalf("%#v == %#v is %v, want %v", a, b, got, want)
			}
		}
		// Of over every native type it accepts.
		for _, x := range []any{ia&1 == 1, int(ia), int32(ia), ia, uint32(ia), float32(math.Float64frombits(fa)), math.Float64frombits(fa), sa} {
			checkSame(t, fmt.Sprintf("Of(%T)", x), Of(x), refOf(x))
		}
		checkSame(t, "Of(Value)", Of(a), ra)
		// Arbitrary bytes decode, or fail, as the reference does.
		got, err := UnmarshalValue([]byte(sa))
		want, rerr := refUnmarshal([]byte(sa))
		if (err == nil) != (rerr == nil) || err != nil && err.Error() != rerr.Error() {
			t.Fatalf("UnmarshalValue(%x) error %v, want %v", sa, err, rerr)
		}
		if err == nil {
			checkSame(t, "UnmarshalValue", got, want)
		}
	})
}

func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
}
