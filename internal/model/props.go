package model

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
)

// Properties maps attribute names to typed values. A nil map is a valid empty
// property set. Attributed graphs in the survey's taxonomy attach such maps to
// nodes and edges.
type Properties map[string]Value

// Props builds a property map from alternating key/value pairs, converting
// values with Of. It panics on an odd number of arguments or non-string keys,
// which makes misuse visible at development time; it is intended for literals.
func Props(kv ...any) Properties {
	if len(kv)%2 != 0 {
		panic("model.Props: odd number of arguments")
	}
	p := make(Properties, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		k, ok := kv[i].(string)
		if !ok {
			panic(fmt.Sprintf("model.Props: key %d is %T, not string", i/2, kv[i]))
		}
		p[k] = Of(kv[i+1])
	}
	return p
}

// Get returns the value for key, or null if absent.
func (p Properties) Get(key string) Value {
	if p == nil {
		return Null()
	}
	return p[key]
}

// Has reports whether the key is present.
func (p Properties) Has(key string) bool {
	_, ok := p[key]
	return ok
}

// Clone returns an independent copy.
func (p Properties) Clone() Properties {
	if p == nil {
		return nil
	}
	c := make(Properties, len(p))
	for k, v := range p {
		c[k] = v
	}
	return c
}

// Equal reports whether two property maps contain the same keys and
// semantically equal values.
func (p Properties) Equal(o Properties) bool {
	if len(p) != len(o) {
		return false
	}
	for k, v := range p {
		ov, ok := o[k]
		if !ok || !v.Equal(ov) {
			return false
		}
	}
	return true
}

// Keys returns the property names in sorted order.
func (p Properties) Keys() []string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// String renders the map deterministically as {k: v, ...}.
func (p Properties) String() string {
	var buf bytes.Buffer
	buf.WriteByte('{')
	for i, k := range p.Keys() {
		if i > 0 {
			buf.WriteString(", ")
		}
		fmt.Fprintf(&buf, "%s: %s", k, p[k])
	}
	buf.WriteByte('}')
	return buf.String()
}

// MarshalBinary encodes the property map for storage. Keys are written in
// sorted order so the encoding is deterministic.
func (p Properties) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		buf.Write(scratch[:n])
	}
	putUvarint(uint64(len(p)))
	for _, k := range p.Keys() {
		putUvarint(uint64(len(k)))
		buf.WriteString(k)
		vb, err := p[k].MarshalBinary()
		if err != nil {
			return nil, err
		}
		putUvarint(uint64(len(vb)))
		buf.Write(vb)
	}
	return buf.Bytes(), nil
}

// UnmarshalProperties decodes a map produced by Properties.MarshalBinary,
// reading keys and values straight from data. It refuses a key or value cut
// short, bytes after the last entry, and a count the remaining bytes cannot
// hold.
func UnmarshalProperties(data []byte) (Properties, error) {
	n, w := binary.Uvarint(data)
	if w <= 0 {
		return nil, fmt.Errorf("model: bad property count")
	}
	data = data[w:]
	// An entry takes at least three bytes: two lengths and a kind tag.
	if n > uint64(len(data)/3) {
		return nil, fmt.Errorf("model: %d properties cannot fit in %d bytes", n, len(data))
	}
	p := make(Properties, n)
	for i := uint64(0); i < n; i++ {
		key, rest, ok := lengthPrefixed(data)
		if !ok {
			return nil, fmt.Errorf("model: truncated property key")
		}
		vb, rest, ok := lengthPrefixed(rest)
		if !ok {
			return nil, fmt.Errorf("model: truncated value of property %q", key)
		}
		v, err := UnmarshalValue(vb)
		if err != nil {
			return nil, err
		}
		p[string(key)] = v
		data = rest
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("model: %d bytes after the last property", len(data))
	}
	return p, nil
}

// lengthPrefixed splits a uvarint-length-prefixed field off the front of
// data, reporting false if data ends before the field does.
func lengthPrefixed(data []byte) (field, rest []byte, ok bool) {
	n, w := binary.Uvarint(data)
	if w <= 0 || n > uint64(len(data)-w) {
		return nil, nil, false
	}
	end := w + int(n)
	return data[w:end], data[end:], true
}
