package model

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
	"testing/quick"
)

func TestPropsBuilder(t *testing.T) {
	p := Props("name", "ada", "age", 36, "score", 9.5, "active", true)
	if v, _ := p["name"].AsString(); v != "ada" {
		t.Errorf("name = %v", p["name"])
	}
	if v, _ := p["age"].AsInt(); v != 36 {
		t.Errorf("age = %v", p["age"])
	}
	if v, _ := p["score"].AsFloat(); v != 9.5 {
		t.Errorf("score = %v", p["score"])
	}
	if v, _ := p["active"].AsBool(); !v {
		t.Errorf("active = %v", p["active"])
	}
}

func TestPropsBuilderPanics(t *testing.T) {
	assertPanics(t, func() { Props("only-key") })
	assertPanics(t, func() { Props(1, "value") })
}

func assertPanics(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	fn()
}

func TestPropsGetHasClone(t *testing.T) {
	var nilProps Properties
	if !nilProps.Get("x").IsNull() {
		t.Error("nil props Get should be null")
	}
	if nilProps.Has("x") {
		t.Error("nil props Has should be false")
	}
	if nilProps.Clone() != nil {
		t.Error("nil props Clone should be nil")
	}
	p := Props("a", 1)
	c := p.Clone()
	c["a"] = Int(2)
	if v, _ := p["a"].AsInt(); v != 1 {
		t.Error("Clone should be independent")
	}
}

func TestPropsEqual(t *testing.T) {
	a := Props("x", 1, "y", "z")
	b := Props("y", "z", "x", 1)
	if !a.Equal(b) {
		t.Error("equal maps reported unequal")
	}
	if a.Equal(Props("x", 1)) {
		t.Error("different sizes reported equal")
	}
	if a.Equal(Props("x", 2, "y", "z")) {
		t.Error("different values reported equal")
	}
	if a.Equal(Props("x", 1, "w", "z")) {
		t.Error("different keys reported equal")
	}
	// Numeric equality across kinds.
	if !Props("n", 1).Equal(Props("n", 1.0)) {
		t.Error("int/float numeric equality should hold")
	}
}

func TestPropsStringDeterministic(t *testing.T) {
	p := Props("b", 2, "a", 1)
	want := "{a: 1, b: 2}"
	for i := 0; i < 10; i++ {
		if got := p.String(); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
	}
}

func TestPropsMarshalRoundTrip(t *testing.T) {
	p := Props("name", "grace", "year", 1952, "ratio", 0.25, "ok", true)
	b, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalProperties(b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(p) {
		t.Errorf("round trip: got %v want %v", got, p)
	}
	// Empty map round trip.
	b2, err := Properties{}.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got2, err := UnmarshalProperties(b2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != 0 {
		t.Errorf("empty round trip has %d keys", len(got2))
	}
}

func TestPropsMarshalDeterministic(t *testing.T) {
	p := Props("z", 1, "a", 2, "m", 3)
	b1, _ := p.MarshalBinary()
	b2, _ := p.MarshalBinary()
	if !reflect.DeepEqual(b1, b2) {
		t.Error("marshal not deterministic")
	}
}

func TestPropsRoundTripQuick(t *testing.T) {
	f := func(keys []string, ints []int64) bool {
		p := Properties{}
		for i, k := range keys {
			if i < len(ints) {
				p[k] = Int(ints[i])
			} else {
				p[k] = Str(k)
			}
		}
		b, err := p.MarshalBinary()
		if err != nil {
			return false
		}
		got, err := UnmarshalProperties(b)
		if err != nil {
			return false
		}
		return got.Equal(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalPropertiesErrors(t *testing.T) {
	if _, err := UnmarshalProperties(nil); err == nil {
		t.Error("nil should fail")
	}
	// Claim one entry but provide nothing else.
	if _, err := UnmarshalProperties([]byte{1}); err == nil {
		t.Error("truncated should fail")
	}
}

// A property encoding cut anywhere, followed by extra bytes, or claiming
// more entries than its bytes can hold is refused, never decoded as
// zero-padded keys and values.
func TestUnmarshalPropertiesRefusesTruncation(t *testing.T) {
	enc, err := Props("name", "hello", "n", 7).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(enc); cut++ {
		if p, err := UnmarshalProperties(enc[:cut]); err == nil {
			t.Errorf("cut at %d of %d decodes as %v", cut, len(enc), p)
		}
	}
	if p, err := UnmarshalProperties(append(enc[:len(enc):len(enc)], 0)); err == nil {
		t.Errorf("a trailing byte decodes as %v", p)
	}
	huge := binary.AppendUvarint(nil, 1<<40)
	if _, err := UnmarshalProperties(append(huge, enc[1:]...)); err == nil {
		t.Error("a count of 2^40 over a few bytes decodes")
	}
}

// FuzzUnmarshalProperties: decoding any bytes returns an error or a map,
// never a panic, and a decoded map re-encodes to bytes that decode to the
// same map and encode the same again.
func FuzzUnmarshalProperties(f *testing.F) {
	for _, p := range []Properties{nil, Props("name", "hello"), Props("a", 1, "b", 2.5, "c", true, "d", nil)} {
		enc, err := p.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := UnmarshalProperties(data)
		if err != nil {
			return
		}
		enc, err := p.MarshalBinary()
		if err != nil {
			t.Fatalf("re-encoding %v: %v", p, err)
		}
		q, err := UnmarshalProperties(enc)
		if err != nil {
			t.Fatalf("decoding the re-encoding of %v: %v", p, err)
		}
		again, err := q.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, again) || !reflect.DeepEqual(p.Keys(), q.Keys()) {
			t.Fatalf("round trip: %v encodes as %x, decodes as %v, encodes as %x", p, enc, q, again)
		}
	})
}
