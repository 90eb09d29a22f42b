package model

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if !Null().IsNull() {
		t.Fatal("Null() should be null")
	}
	if v, ok := Bool(true).AsBool(); !ok || !v {
		t.Fatalf("Bool(true) = %v, %v", v, ok)
	}
	if v, ok := Int(42).AsInt(); !ok || v != 42 {
		t.Fatalf("Int(42) = %v, %v", v, ok)
	}
	if v, ok := Float(2.5).AsFloat(); !ok || v != 2.5 {
		t.Fatalf("Float(2.5) = %v, %v", v, ok)
	}
	if v, ok := Str("x").AsString(); !ok || v != "x" {
		t.Fatalf("Str(x) = %v, %v", v, ok)
	}
	// Cross accessors fail.
	if _, ok := Int(1).AsBool(); ok {
		t.Fatal("Int should not read as bool")
	}
	if _, ok := Str("a").AsInt(); ok {
		t.Fatal("Str should not read as int")
	}
	// Int reads as float.
	if f, ok := Int(3).AsFloat(); !ok || f != 3 {
		t.Fatalf("Int(3).AsFloat() = %v, %v", f, ok)
	}
}

func TestOfConversions(t *testing.T) {
	cases := []struct {
		in   any
		want Value
	}{
		{nil, Null()},
		{true, Bool(true)},
		{7, Int(7)},
		{int32(7), Int(7)},
		{int64(7), Int(7)},
		{uint32(7), Int(7)},
		{float32(1.5), Float(1.5)},
		{2.25, Float(2.25)},
		{"hi", Str("hi")},
		{Int(9), Int(9)},
		{struct{}{}, Null()},
	}
	for _, c := range cases {
		if got := Of(c.in); !got.Equal(c.want) {
			t.Errorf("Of(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Int(1), Float(1.0), 0},
		{Float(0.5), Int(1), -1},
		{Str("a"), Str("b"), -1},
		{Str("b"), Str("b"), 0},
		{Bool(false), Bool(true), -1},
		{Null(), Bool(false), -1},
		{Bool(true), Int(0), -1},
		{Int(10), Str(""), -1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := c.b.Compare(c.a); got != -c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.b, c.a, got, -c.want)
		}
	}
}

func TestValueString(t *testing.T) {
	cases := map[string]Value{
		"null": Null(),
		"true": Bool(true),
		"-3":   Int(-3),
		"2.5":  Float(2.5),
		"abc":  Str("abc"),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("%#v.String() = %q, want %q", v, got, want)
		}
	}
}

func TestEncodeKeyOrderMatchesCompare(t *testing.T) {
	vals := []Value{
		Null(), Bool(false), Bool(true),
		Int(math.MinInt64 / 2), Int(-1), Int(0), Int(1), Int(1 << 40),
		Float(-1e300), Float(-0.5), Float(0), Float(0.5), Float(1e300),
		Str(""), Str("a"), Str("ab"), Str("b"),
	}
	for _, a := range vals {
		for _, b := range vals {
			ka := a.EncodeKey(nil)
			kb := b.EncodeKey(nil)
			cmpKeys := bytes.Compare(ka, kb)
			cmpVals := a.Compare(b)
			if (cmpKeys < 0) != (cmpVals < 0) || (cmpKeys > 0) != (cmpVals > 0) {
				t.Errorf("key order disagrees for %v vs %v: keys %d, vals %d", a, b, cmpKeys, cmpVals)
			}
		}
	}
}

func TestValueMarshalRoundTrip(t *testing.T) {
	vals := []Value{Null(), Bool(true), Bool(false), Int(-99), Int(1 << 50), Float(3.14159), Str(""), Str("hello world")}
	for _, v := range vals {
		b, err := v.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal %v: %v", v, err)
		}
		got, err := UnmarshalValue(b)
		if err != nil {
			t.Fatalf("unmarshal %v: %v", v, err)
		}
		if !got.Equal(v) || got.Kind() != v.Kind() {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
}

// TestAppendBinaryKeepsPrefix pins the one value encoder: appended after a
// non-empty prefix, every kind keeps the prefix, writes the documented
// bytes, and equals MarshalBinary; an invalid kind fails with the same
// error and leaves the prefix as it was.
func TestAppendBinaryKeepsPrefix(t *testing.T) {
	cases := []struct {
		v    Value
		want []byte
	}{
		{Null(), []byte{0}},
		{Bool(true), []byte{1, 1}},
		{Bool(false), []byte{1, 0}},
		{Int(-2), []byte{2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfe}},
		{Float(1), []byte{3, 0x3f, 0xf0, 0, 0, 0, 0, 0, 0}},
		{Str(""), []byte{4}},
		{Str("hi"), []byte{4, 'h', 'i'}},
	}
	prefix := []byte("pre")
	for _, c := range cases {
		got, err := c.v.AppendBinary(append([]byte(nil), prefix...))
		if err != nil {
			t.Fatalf("AppendBinary(%v): %v", c.v, err)
		}
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], c.want) {
			t.Errorf("AppendBinary(%v) after %q = %v, want the prefix then %v", c.v, prefix, got, c.want)
		}
		m, err := c.v.MarshalBinary()
		if err != nil || !bytes.Equal(m, c.want) {
			t.Errorf("MarshalBinary(%v) = %v, %v; want %v", c.v, m, err, c.want)
		}
	}
	bad := Value{kind: 9}
	got, err := bad.AppendBinary(append([]byte(nil), prefix...))
	_, merr := bad.MarshalBinary()
	if err == nil || merr == nil || err.Error() != merr.Error() {
		t.Fatalf("invalid kind: AppendBinary err %v, MarshalBinary err %v; want one error", err, merr)
	}
	if !bytes.Equal(got, prefix) {
		t.Fatalf("invalid kind: AppendBinary returned %q, want the prefix %q unchanged", got, prefix)
	}
}

func TestUnmarshalValueErrors(t *testing.T) {
	bad := [][]byte{
		nil,
		{byte(KindBool)},      // too short
		{byte(KindInt), 1, 2}, // wrong length
		{byte(KindFloat), 1},  // wrong length
		{200},                 // unknown tag
	}
	for _, b := range bad {
		if _, err := UnmarshalValue(b); err == nil {
			t.Errorf("UnmarshalValue(%v) should fail", b)
		}
	}
}

func TestIntMarshalQuick(t *testing.T) {
	f := func(x int64) bool {
		b, err := Int(x).MarshalBinary()
		if err != nil {
			return false
		}
		v, err := UnmarshalValue(b)
		if err != nil {
			return false
		}
		got, ok := v.AsInt()
		return ok && got == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloatKeyOrderQuick(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		ka := Float(a).EncodeKey(nil)
		kb := Float(b).EncodeKey(nil)
		c := bytes.Compare(ka, kb)
		switch {
		case a < b:
			return c < 0
		case a > b:
			return c > 0
		default:
			return c == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
