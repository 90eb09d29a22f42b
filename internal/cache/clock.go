package cache

import "sync"

// Clock is a fixed-budget in-memory cache with CLOCK (second-chance)
// replacement. Each entry carries a byte cost computed by the cost
// function at insert time; the sum of costs never exceeds the budget. A
// budget of zero or less disables the cache entirely: Put is a no-op and
// Get always misses, so callers need no separate "cache off" path.
//
// All methods are safe for concurrent use. Values are returned as stored —
// callers that hand out mutable values must copy on the way in or out.
type Clock[K comparable, V any] struct {
	mu     sync.Mutex
	budget int64
	used   int64
	cost   func(K, V) int64
	pos    map[K]int
	slots  []clockSlot[K, V]
	free   []int
	hand   int

	hits, misses, evictions uint64
}

type clockSlot[K comparable, V any] struct {
	key  K
	val  V
	cost int64
	ref  bool
	live bool
}

// NewClock returns a CLOCK cache bounded by budget bytes. cost prices one
// entry; nil means every entry costs 1 (an entry-count budget).
func NewClock[K comparable, V any](budget int64, cost func(K, V) int64) *Clock[K, V] {
	if cost == nil {
		cost = func(K, V) int64 { return 1 }
	}
	return &Clock[K, V]{budget: budget, cost: cost, pos: map[K]int{}}
}

// Get returns the cached value for k, marking the entry recently used.
func (c *Clock[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.pos[k]; ok {
		c.slots[i].ref = true
		c.hits++
		return c.slots[i].val, true
	}
	c.misses++
	var zero V
	return zero, false
}

// Put inserts or replaces k. Entries whose cost alone exceeds the budget
// are not admitted.
func (c *Clock[K, V]) Put(k K, v V) {
	if c.budget <= 0 {
		return
	}
	cost := c.cost(k, v)
	c.mu.Lock()
	defer c.mu.Unlock()
	if cost > c.budget {
		return
	}
	if i, ok := c.pos[k]; ok {
		c.used += cost - c.slots[i].cost
		c.slots[i].val = v
		c.slots[i].cost = cost
		c.slots[i].ref = true
	} else {
		i := c.takeSlotLocked()
		c.slots[i] = clockSlot[K, V]{key: k, val: v, cost: cost, ref: true, live: true}
		c.pos[k] = i
		c.used += cost
	}
	for c.used > c.budget {
		if !c.evictOneLocked() {
			break
		}
	}
}

// takeSlotLocked returns a free slot index, growing the ring if needed.
func (c *Clock[K, V]) takeSlotLocked() int {
	if n := len(c.free); n > 0 {
		i := c.free[n-1]
		c.free = c.free[:n-1]
		return i
	}
	c.slots = append(c.slots, clockSlot[K, V]{})
	return len(c.slots) - 1
}

// evictOneLocked runs the clock hand: referenced entries get a second
// chance, the first unreferenced one is evicted. Terminates within two
// sweeps of the ring.
func (c *Clock[K, V]) evictOneLocked() bool {
	if len(c.pos) == 0 {
		return false
	}
	for scanned := 0; scanned < 2*len(c.slots); scanned++ {
		i := c.hand
		c.hand = (c.hand + 1) % len(c.slots)
		s := &c.slots[i]
		if !s.live {
			continue
		}
		if s.ref {
			s.ref = false
			continue
		}
		c.dropLocked(i)
		c.evictions++
		return true
	}
	return false
}

func (c *Clock[K, V]) dropLocked(i int) {
	s := &c.slots[i]
	delete(c.pos, s.key)
	c.used -= s.cost
	var zero clockSlot[K, V]
	*s = zero
	c.free = append(c.free, i)
}

// Remove deletes k if present, reporting whether it existed. Removals are
// not counted as evictions.
func (c *Clock[K, V]) Remove(k K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.pos[k]
	if ok {
		c.dropLocked(i)
	}
	return ok
}

// Len returns the number of cached entries.
func (c *Clock[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pos)
}

// Stats returns a snapshot of the counters.
func (c *Clock[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:        c.hits,
		Misses:      c.misses,
		Evictions:   c.evictions,
		Entries:     len(c.pos),
		UsedBytes:   c.used,
		BudgetBytes: c.budget,
	}
}
