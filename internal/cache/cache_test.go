package cache

import (
	"fmt"
	"sync"
	"testing"
)

func TestClockBasics(t *testing.T) {
	c := NewClock[string, int](3, nil) // unit costs: holds 3 entries
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3)
	for k, want := range map[string]int{"a": 1, "b": 2, "c": 3} {
		if v, ok := c.Get(k); !ok || v != want {
			t.Fatalf("Get(%q) = %d, %v; want %d", k, v, ok, want)
		}
	}
	c.Put("d", 4) // over budget: one entry must go
	if c.Len() != 3 {
		t.Fatalf("Len = %d after eviction, want 3", c.Len())
	}
	s := c.Stats()
	if s.Evictions != 1 || s.UsedBytes != 3 || s.BudgetBytes != 3 {
		t.Fatalf("stats after eviction: %+v", s)
	}
	if !c.Remove("d") && !c.Remove("a") {
		t.Fatal("Remove found neither d nor a")
	}
}

func TestClockReplaceUpdatesCost(t *testing.T) {
	c := NewClock[string, string](10, func(_ string, v string) int64 { return int64(len(v)) })
	c.Put("k", "aaaa") // cost 4
	c.Put("k", "aa")   // cost 2: replacement must release the old cost
	if s := c.Stats(); s.UsedBytes != 2 || s.Entries != 1 {
		t.Fatalf("stats after replace: %+v", s)
	}
	c.Put("big", "aaaaaaaaaaaaaaaa") // cost 16 > budget: not admitted
	if _, ok := c.Get("big"); ok {
		t.Fatal("over-budget entry was admitted")
	}
}

func TestClockSecondChance(t *testing.T) {
	c := NewClock[int, int](3, nil)
	c.Put(1, 1)
	c.Put(2, 2)
	c.Put(3, 3)
	// Reference 1 and 2; 3's ref bit is cleared by a first sweep, so the
	// victim of the next insert must be 3.
	c.Get(1)
	c.Get(2)
	// Clear all ref bits with enough Puts is fiddly; instead assert only
	// that a referenced entry survives one eviction round.
	c.Put(4, 4)
	hits := 0
	for _, k := range []int{1, 2} {
		if _, ok := c.Get(k); ok {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("both recently-referenced entries were evicted before the unreferenced one")
	}
}

func TestClockZeroBudget(t *testing.T) {
	for _, budget := range []int64{0, -1} {
		c := NewClock[string, int](budget, nil)
		c.Put("a", 1)
		if _, ok := c.Get("a"); ok {
			t.Fatalf("budget %d: Put stored an entry", budget)
		}
		if s := c.Stats(); s.Entries != 0 || s.UsedBytes != 0 {
			t.Fatalf("budget %d: stats %+v", budget, s)
		}
	}
	// The result cache inherits the behavior.
	r := NewResults(0)
	r.Put(7, 1, "x", 8)
	if _, ok := r.Get(7, 1); ok {
		t.Fatal("zero-budget result cache stored an entry")
	}
}

func TestClockConcurrentReaders(t *testing.T) {
	// Eviction churn under concurrent readers: a small budget forces every
	// writer Put to evict while readers Get. Run with -race in make race.
	c := NewClock[int, int](32, nil)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				c.Put((seed*2000+i)%97, i)
			}
		}(w)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				c.Get((seed*31 + i) % 97)
			}
		}(w)
	}
	wg.Wait()
	s := c.Stats()
	if s.Entries > 32 || s.UsedBytes > 32 {
		t.Fatalf("budget exceeded after churn: %+v", s)
	}
	if s.Evictions == 0 {
		t.Fatal("expected eviction churn")
	}
}

func TestRingVictimOrder(t *testing.T) {
	r := NewRing[int]()
	r.Note(1)
	r.Note(2)
	r.Note(3)
	// All ref bits are set at insert, so the first sweep clears them in hand
	// order and the oldest entry falls first.
	if v, ok := r.Victim(); !ok || v != 1 {
		t.Fatalf("first victim = %d, %v; want 1", v, ok)
	}
	// Ref bits are now clear. A touch on 2 must protect it: the sweep skips
	// it (clearing the bit) and takes unreferenced 3 instead.
	r.Note(2)
	if v, ok := r.Victim(); !ok || v != 3 {
		t.Fatalf("second victim = %d, %v; want 3 (2 was just touched)", v, ok)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d after two evictions, want 1", r.Len())
	}
	if !r.Remove(2) {
		t.Fatal("Remove(2) failed")
	}
	if r.Remove(2) {
		t.Fatal("double Remove(2) succeeded")
	}
}

func TestEpochWraparound(t *testing.T) {
	var e Epoch
	e.n.Store(^uint64(0)) // max: next Bump wraps to 0
	if got := e.Bump(); got != 0 {
		t.Fatalf("Bump at max = %d, want 0", got)
	}
	// A result cache keyed on the pre-wrap epoch must miss after the wrap:
	// the key includes the epoch value itself.
	r := NewResults(1 << 16)
	e.n.Store(^uint64(0))
	r.Put(42, e.Current(), "stale", 8)
	e.Bump() // wrap to 0
	e.Bump() // simulate mutation exit
	if _, ok := r.Get(42, e.Current()); ok {
		t.Fatal("post-wrap epoch hit a pre-wrap entry")
	}
	if v, ok := r.Get(42, ^uint64(0)); !ok || v != "stale" {
		t.Fatal("pre-wrap entry should still be addressable under its own epoch")
	}
}

func TestFingerprintSeparatorsMatter(t *testing.T) {
	if Fingerprint("ab", "c") == Fingerprint("a", "bc") {
		t.Fatal("fingerprint collision across part boundaries")
	}
	if Fingerprint("x") != Fingerprint("x") {
		t.Fatal("fingerprint not deterministic")
	}
}

func TestClockManyKeysStaysBounded(t *testing.T) {
	c := NewClock[string, int](100, nil)
	for i := 0; i < 1000; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
		if s := c.Stats(); s.UsedBytes > s.BudgetBytes {
			t.Fatalf("budget exceeded at i=%d: %+v", i, s)
		}
	}
	if c.Len() != 100 {
		t.Fatalf("Len = %d, want 100", c.Len())
	}
}
