package index

import (
	"math"
	"slices"
	"sync"

	"gdbm/internal/model"
)

// Index maps property values to sets of uint64 identifiers (node or edge
// IDs). Both implementations serve equality lookups; they differ in lookup
// cost and memory. Two values are the same index value exactly when their
// model.Value.EncodeKey bytes are equal: numbers compare by the float64
// bits of AsFloat, so Int(5) and Float(5.0) are one value, and -0.0 and
// 0.0 are two.
type Index interface {
	// Add associates id with value.
	Add(v model.Value, id uint64) error
	// Remove drops the association.
	Remove(v model.Value, id uint64) error
	// Lookup calls fn for each id with the exact value, in ascending id
	// order, until fn returns false. It visits the ids the value held when
	// the call began, and fn may write to the index.
	Lookup(v model.Value, fn func(id uint64) bool) error
	// Count returns the number of ids associated with the value.
	Count(v model.Value) int
	// Clear drops every association.
	Clear()
	// Kind names the index implementation.
	Kind() string
}

// key is a value's identity in an index: a comparable stand-in for the
// EncodeKey bytes, equal exactly when they are. rank is EncodeKey's tag
// byte; n carries a bool (0 or 1) or a number's float64 bits; s carries a
// string. It shares the value's string bytes instead of copying them.
type key struct {
	s    string
	n    uint64
	rank uint8
}

// keyOf returns v's key.
func keyOf(v model.Value) key {
	switch v.Kind() {
	case model.KindNull:
		return key{}
	case model.KindBool:
		if b, _ := v.AsBool(); b {
			return key{rank: 1, n: 1}
		}
		return key{rank: 1}
	case model.KindInt, model.KindFloat:
		f, _ := v.AsFloat()
		return key{rank: 2, n: math.Float64bits(f)}
	case model.KindString:
		s, _ := v.AsString()
		return key{rank: 3, s: s}
	}
	return key{rank: 4}
}

// --- bitmap index ---

// Bitmap is a DEX-style bitmap index: one bitset per distinct value. Lookups
// and set operations over whole value classes are fast; memory grows with
// the id universe.
type Bitmap struct {
	mu   sync.RWMutex
	sets map[key]*Bitset
}

// NewBitmap returns an empty bitmap index.
func NewBitmap() *Bitmap { return &Bitmap{sets: make(map[key]*Bitset)} }

// Kind implements Index.
func (b *Bitmap) Kind() string { return "bitmap" }

// Add implements Index.
func (b *Bitmap) Add(v model.Value, id uint64) error {
	k := keyOf(v)
	b.mu.Lock()
	defer b.mu.Unlock()
	s, ok := b.sets[k]
	if !ok {
		s = &Bitset{}
		b.sets[k] = s
	}
	s.Set(id)
	return nil
}

// Remove implements Index.
func (b *Bitmap) Remove(v model.Value, id uint64) error {
	k := keyOf(v)
	b.mu.Lock()
	defer b.mu.Unlock()
	if s, ok := b.sets[k]; ok {
		s.Clear(id)
		if s.Empty() {
			delete(b.sets, k)
		}
	}
	return nil
}

// Lookup implements Index. Under the read lock it copies the value's ids,
// into a stack buffer when there are at most eight, or the words of its
// bitset when those are fewer than its ids, and it visits the ids in
// ascending order after releasing the lock. So a probe allocates for the
// smaller of the value's ids and its bitset, never for the whole bitset of
// a value with few ids.
func (b *Bitmap) Lookup(v model.Value, fn func(uint64) bool) error {
	k := keyOf(v)
	var buf [8]uint64
	var words Bitset
	b.mu.RLock()
	ids := buf[:0]
	if s, ok := b.sets[k]; ok {
		if n := s.Count(); n > max(len(buf), len(s.words)) {
			words.words = slices.Clone(s.words)
		} else {
			if n > len(buf) {
				ids = make([]uint64, 0, n)
			}
			s.Iterate(func(id uint64) bool {
				ids = append(ids, id)
				return true
			})
		}
	}
	b.mu.RUnlock()
	for _, id := range ids {
		if !fn(id) {
			return nil
		}
	}
	words.Iterate(fn)
	return nil
}

// Count implements Index.
func (b *Bitmap) Count(v model.Value) int {
	k := keyOf(v)
	b.mu.RLock()
	defer b.mu.RUnlock()
	if s, ok := b.sets[k]; ok {
		return s.Count()
	}
	return 0
}

// Clear implements Index.
func (b *Bitmap) Clear() {
	b.mu.Lock()
	defer b.mu.Unlock()
	clear(b.sets)
}

// Set returns a copy of the bitset for value, or an empty set. It exposes
// the bitmap-algebra capability (AND/OR across values) that motivates this
// index kind.
func (b *Bitmap) Set(v model.Value) *Bitset {
	k := keyOf(v)
	b.mu.RLock()
	defer b.mu.RUnlock()
	if s, ok := b.sets[k]; ok {
		return s.Clone()
	}
	return &Bitset{}
}

// --- hash index ---

// Hash is a hash index. A value held by one id costs one slot in one; a
// value held by two or more ids keeps them ascending in many. A value is in
// at most one of the two maps, and a list in many never shrinks below two
// ids: a Remove that leaves one moves it back to one.
type Hash struct {
	mu   sync.RWMutex
	one  map[key]uint64
	many map[key][]uint64
}

// NewHash returns an empty hash index.
func NewHash() *Hash {
	return &Hash{one: make(map[key]uint64), many: make(map[key][]uint64)}
}

// Kind implements Index.
func (h *Hash) Kind() string { return "hash" }

// Add implements Index. Ids that arrive in ascending order, as a load's
// do, append to the end of a list.
func (h *Hash) Add(v model.Value, id uint64) error {
	k := keyOf(v)
	h.mu.Lock()
	defer h.mu.Unlock()
	if ids, ok := h.many[k]; ok {
		if i, found := slices.BinarySearch(ids, id); !found {
			h.many[k] = slices.Insert(ids, i, id)
		}
		return nil
	}
	old, ok := h.one[k]
	switch {
	case !ok:
		h.one[k] = id
	case old != id:
		delete(h.one, k)
		h.many[k] = []uint64{min(old, id), max(old, id)}
	}
	return nil
}

// Remove implements Index. Removing from a list moves its tail down by one.
func (h *Hash) Remove(v model.Value, id uint64) error {
	k := keyOf(v)
	h.mu.Lock()
	defer h.mu.Unlock()
	if old, ok := h.one[k]; ok {
		if old == id {
			delete(h.one, k)
		}
		return nil
	}
	ids, ok := h.many[k]
	if !ok {
		return nil
	}
	i, found := slices.BinarySearch(ids, id)
	if !found {
		return nil
	}
	if len(ids) == 2 {
		delete(h.many, k)
		h.one[k] = ids[1-i]
		return nil
	}
	h.many[k] = slices.Delete(ids, i, i+1)
	return nil
}

// Lookup implements Index. It copies the ids under the read lock, into a
// stack buffer when there are at most eight, and visits them after
// releasing it.
func (h *Hash) Lookup(v model.Value, fn func(uint64) bool) error {
	k := keyOf(v)
	var buf [8]uint64
	h.mu.RLock()
	ids := buf[:0]
	if id, ok := h.one[k]; ok {
		ids = append(ids, id)
	} else {
		ids = append(ids, h.many[k]...)
	}
	h.mu.RUnlock()
	for _, id := range ids {
		if !fn(id) {
			return nil
		}
	}
	return nil
}

// Count implements Index.
func (h *Hash) Count(v model.Value) int {
	k := keyOf(v)
	h.mu.RLock()
	defer h.mu.RUnlock()
	if _, ok := h.one[k]; ok {
		return 1
	}
	return len(h.many[k])
}

// Clear implements Index.
func (h *Hash) Clear() {
	h.mu.Lock()
	defer h.mu.Unlock()
	clear(h.one)
	clear(h.many)
}

var (
	_ Index = (*Bitmap)(nil)
	_ Index = (*Hash)(nil)
)
