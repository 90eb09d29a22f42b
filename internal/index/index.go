package index

import (
	"sync"

	"gdbm/internal/model"
)

// Index maps property values to sets of uint64 identifiers (node or edge
// IDs). Both implementations serve equality lookups; they differ in lookup
// cost and memory.
type Index interface {
	// Add associates id with value.
	Add(v model.Value, id uint64) error
	// Remove drops the association.
	Remove(v model.Value, id uint64) error
	// Lookup calls fn for each id with the exact value until fn returns
	// false.
	Lookup(v model.Value, fn func(id uint64) bool) error
	// Count returns the number of ids associated with the value.
	Count(v model.Value) int
	// Clear drops every association.
	Clear()
	// Kind names the index implementation.
	Kind() string
}

// --- bitmap index ---

// Bitmap is a DEX-style bitmap index: one bitset per distinct value. Lookups
// and set operations over whole value classes are fast; memory grows with
// the id universe.
type Bitmap struct {
	mu   sync.RWMutex
	sets map[string]*Bitset
}

// NewBitmap returns an empty bitmap index.
func NewBitmap() *Bitmap { return &Bitmap{sets: make(map[string]*Bitset)} }

// Kind implements Index.
func (b *Bitmap) Kind() string { return "bitmap" }

func valueKey(v model.Value) string { return string(v.EncodeKey(nil)) }

// Add implements Index.
func (b *Bitmap) Add(v model.Value, id uint64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	k := valueKey(v)
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
	b.mu.Lock()
	defer b.mu.Unlock()
	if s, ok := b.sets[valueKey(v)]; ok {
		s.Clear(id)
		if s.Empty() {
			delete(b.sets, valueKey(v))
		}
	}
	return nil
}

// Lookup implements Index.
func (b *Bitmap) Lookup(v model.Value, fn func(uint64) bool) error {
	b.mu.RLock()
	s, ok := b.sets[valueKey(v)]
	var snap *Bitset
	if ok {
		snap = s.Clone()
	}
	b.mu.RUnlock()
	if snap != nil {
		snap.Iterate(fn)
	}
	return nil
}

// Count implements Index.
func (b *Bitmap) Count(v model.Value) int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if s, ok := b.sets[valueKey(v)]; ok {
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
	b.mu.RLock()
	defer b.mu.RUnlock()
	if s, ok := b.sets[valueKey(v)]; ok {
		return s.Clone()
	}
	return &Bitset{}
}

// --- hash index ---

// Hash is a hash index: one id set per distinct value.
type Hash struct {
	mu   sync.RWMutex
	sets map[string]map[uint64]struct{}
}

// NewHash returns an empty hash index.
func NewHash() *Hash { return &Hash{sets: make(map[string]map[uint64]struct{})} }

// Kind implements Index.
func (h *Hash) Kind() string { return "hash" }

// Add implements Index.
func (h *Hash) Add(v model.Value, id uint64) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	k := valueKey(v)
	s, ok := h.sets[k]
	if !ok {
		s = make(map[uint64]struct{})
		h.sets[k] = s
	}
	s[id] = struct{}{}
	return nil
}

// Remove implements Index.
func (h *Hash) Remove(v model.Value, id uint64) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	k := valueKey(v)
	if s, ok := h.sets[k]; ok {
		delete(s, id)
		if len(s) == 0 {
			delete(h.sets, k)
		}
	}
	return nil
}

// Lookup implements Index. Iteration order is unspecified.
func (h *Hash) Lookup(v model.Value, fn func(uint64) bool) error {
	h.mu.RLock()
	s := h.sets[valueKey(v)]
	snap := make([]uint64, 0, len(s))
	for id := range s {
		snap = append(snap, id)
	}
	h.mu.RUnlock()
	for _, id := range snap {
		if !fn(id) {
			return nil
		}
	}
	return nil
}

// Count implements Index.
func (h *Hash) Count(v model.Value) int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.sets[valueKey(v)])
}

// Clear implements Index.
func (h *Hash) Clear() {
	h.mu.Lock()
	defer h.mu.Unlock()
	clear(h.sets)
}

var (
	_ Index = (*Bitmap)(nil)
	_ Index = (*Hash)(nil)
)
