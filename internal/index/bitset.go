// Package index provides the secondary index structures of Table I's
// "Indexes" column: a DEX-style bitmap index and a hash index. Engines
// choose index kinds according to their archetype; the ablation benchmarks
// compare them.
package index

import "math/bits"

// Bitset is a growable bit vector keyed by uint64 identifiers. The zero
// value is an empty set.
type Bitset struct {
	words []uint64
}

// Set adds id to the set.
func (b *Bitset) Set(id uint64) {
	w := id / 64
	for uint64(len(b.words)) <= w {
		b.words = append(b.words, 0)
	}
	b.words[w] |= 1 << (id % 64)
}

// Clear removes id from the set.
func (b *Bitset) Clear(id uint64) {
	w := id / 64
	if w < uint64(len(b.words)) {
		b.words[w] &^= 1 << (id % 64)
	}
}

// Test reports whether id is in the set.
func (b *Bitset) Test(id uint64) bool {
	w := id / 64
	return w < uint64(len(b.words)) && b.words[w]&(1<<(id%64)) != 0
}

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Iterate calls fn for each set id in ascending order until fn returns false.
func (b *Bitset) Iterate(fn func(id uint64) bool) {
	for wi, w := range b.words {
		for w != 0 {
			bit := uint64(bits.TrailingZeros64(w))
			if !fn(uint64(wi)*64 + bit) {
				return
			}
			w &= w - 1
		}
	}
}

// Clone returns an independent copy.
func (b *Bitset) Clone() *Bitset {
	return &Bitset{words: append([]uint64(nil), b.words...)}
}

// And intersects the receiver with o in place.
func (b *Bitset) And(o *Bitset) {
	n := len(b.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		b.words[i] &= o.words[i]
	}
	for i := n; i < len(b.words); i++ {
		b.words[i] = 0
	}
}

// Or unions o into the receiver.
func (b *Bitset) Or(o *Bitset) {
	for len(b.words) < len(o.words) {
		b.words = append(b.words, 0)
	}
	for i, w := range o.words {
		b.words[i] |= w
	}
}

// AndNot removes o's members from the receiver.
func (b *Bitset) AndNot(o *Bitset) {
	n := len(b.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		b.words[i] &^= o.words[i]
	}
}

// Empty reports whether no bit is set.
func (b *Bitset) Empty() bool {
	for _, w := range b.words {
		if w != 0 {
			return false
		}
	}
	return true
}
