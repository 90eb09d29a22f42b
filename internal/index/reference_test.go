package index

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"gdbm/internal/model"
)

// refPool holds values whose index identity is easy to get wrong: an int
// and the float it equals, the two zeros, a NaN, two ints that one float64
// cannot tell apart, the empty string beside null, both bools, and strings
// that spell a number's encoded key with and without its tag byte.
var refPool = []model.Value{
	model.Int(5), model.Float(5.0),
	model.Float(0), model.Float(math.Copysign(0, -1)),
	model.Float(math.NaN()),
	model.Int(1 << 53), model.Int(1<<53 + 1),
	model.Str(""), model.Null(),
	model.Bool(false), model.Bool(true),
	model.Str(string(model.Int(5).EncodeKey(nil))),
	model.Str(string(model.Int(5).EncodeKey(nil)[1:])),
}

// refIDs are few, so a value's id count rises and falls through 0, 1, 2
// and back, and they straddle a bitset word.
var refIDs = []uint64{0, 3, 64, 130}

// checkHash holds the Hash layout invariant: a value is in one or in many,
// never both, and a list in many holds two or more strictly ascending ids.
func checkHash(h *Hash) error {
	for k, ids := range h.many {
		if _, ok := h.one[k]; ok {
			return fmt.Errorf("value %+v is in both one and many", k)
		}
		if len(ids) < 2 {
			return fmt.Errorf("value %+v keeps %v in many", k, ids)
		}
		for i := 1; i < len(ids); i++ {
			if ids[i-1] >= ids[i] {
				return fmt.Errorf("value %+v keeps %v, not strictly ascending", k, ids)
			}
		}
	}
	return nil
}

// FuzzIndexMatchesReference drives Add, Remove, Lookup (with early stop),
// Count and Clear on both index kinds against a map keyed by the EncodeKey
// bytes, and after every step requires each pool value's Count and Lookup
// to match the reference, with Lookup in ascending id order.
func FuzzIndexMatchesReference(f *testing.F) {
	// One value's ids go 0, 1, 2, 1, 0, 1; then an int and a float that
	// are one value share it.
	f.Add([]byte{0, 0, 0, 0, 0, 1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 2, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 1, 1, 1, 0, 0, 1, 1, 0})
	f.Add([]byte{0, 0, 2, 0, 1, 0, 0, 0, 3, 2, 1, 1, 1, 0, 2, 1, 0, 0, 4, 0, 0})
	f.Add([]byte{0, 2, 0, 0, 3, 1, 1, 4, 2, 0, 5, 0, 0, 2, 3})
	f.Add([]byte{0, 5, 0, 0, 6, 1, 0, 9, 2, 0, 10, 3, 0, 7, 0, 0, 8, 1, 1, 6, 0})
	f.Add([]byte{0, 11, 0, 0, 12, 1, 0, 0, 2, 2, 0, 2, 0, 0, 3, 1, 0, 0, 5, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		h, b := NewHash(), NewBitmap()
		idxs := []Index{h, b}
		ref := map[string]map[uint64]bool{}
		want := func(v model.Value) []uint64 {
			var ids []uint64
			for id := range ref[string(v.EncodeKey(nil))] {
				ids = append(ids, id)
			}
			slices.Sort(ids)
			return ids
		}
		for i := 0; i+2 < len(ops); i += 3 {
			v := refPool[int(ops[i+1])%len(refPool)]
			id := refIDs[int(ops[i+2])%len(refIDs)]
			k := string(v.EncodeKey(nil))
			switch ops[i] % 5 {
			case 0:
				for _, idx := range idxs {
					idx.Add(v, id)
				}
				if ref[k] == nil {
					ref[k] = map[uint64]bool{}
				}
				ref[k][id] = true
			case 1:
				for _, idx := range idxs {
					idx.Remove(v, id)
				}
				delete(ref[k], id)
				if len(ref[k]) == 0 {
					delete(ref, k)
				}
			case 2:
				stop := int(ops[i+2]) % 3
				w := want(v)
				if stop < len(w) {
					w = w[:stop+1]
				}
				for _, idx := range idxs {
					var got []uint64
					idx.Lookup(v, func(id uint64) bool {
						got = append(got, id)
						return len(got) <= stop
					})
					if !slices.Equal(got, w) {
						t.Fatalf("step %d: %s Lookup(%v) stopping after %d = %v, want %v", i/3, idx.Kind(), v, stop+1, got, w)
					}
				}
			case 3:
				for _, idx := range idxs {
					idx.Clear()
				}
				clear(ref)
			}
			if err := checkHash(h); err != nil {
				t.Fatalf("step %d: %v", i/3, err)
			}
			for _, pv := range refPool {
				w := want(pv)
				for _, idx := range idxs {
					if got := idx.Count(pv); got != len(w) {
						t.Fatalf("step %d: %s Count(%v) = %d, want %d", i/3, idx.Kind(), pv, got, len(w))
					}
					var got []uint64
					idx.Lookup(pv, func(id uint64) bool { got = append(got, id); return true })
					if !slices.Equal(got, w) {
						t.Fatalf("step %d: %s Lookup(%v) = %v, want %v", i/3, idx.Kind(), pv, got, w)
					}
				}
			}
		}
	})
}

// TestHashLookupAllocs: a Hash probe of a value with at most eight ids
// allocates nothing, and neither does Manager.Get.
func TestHashLookupAllocs(t *testing.T) {
	h := NewHash()
	h.Add(model.Int(1), 7)
	for id := uint64(0); id < 8; id++ {
		h.Add(model.Str("eight"), 100-id)
	}
	n := 0
	visit := func(uint64) bool { n++; return true }
	for _, v := range []model.Value{model.Int(1), model.Float(1), model.Str("eight"), model.Str("none")} {
		if a := testing.AllocsPerRun(100, func() { h.Lookup(v, visit) }); a != 0 {
			t.Errorf("Lookup(%v) allocates %.1f times per call", v, a)
		}
	}
	if n == 0 {
		t.Fatal("no Lookup visited an id")
	}
	m := NewManager()
	m.Register(Nodes, "idx", h)
	if a := testing.AllocsPerRun(100, func() { m.Get(Nodes, "idx") }); a != 0 {
		t.Errorf("Manager.Get allocates %.1f times per call", a)
	}
}

// TestBitmapLookupAllocs: a Bitmap probe of a value with one or eight ids
// allocates nothing, however large the ids, and visits them ascending.
func TestBitmapLookupAllocs(t *testing.T) {
	b := NewBitmap()
	b.Add(model.Int(1), 19999)
	for id := uint64(0); id < 8; id++ {
		b.Add(model.Str("eight"), 20000-id*997)
	}
	for _, v := range []model.Value{model.Int(1), model.Str("eight")} {
		var got []uint64
		b.Lookup(v, func(id uint64) bool { got = append(got, id); return true })
		if len(got) == 0 || !slices.IsSorted(got) {
			t.Fatalf("Lookup(%v) visited %v, want its ids ascending", v, got)
		}
		visit := func(uint64) bool { return true }
		if a := testing.AllocsPerRun(100, func() { b.Lookup(v, visit) }); a != 0 {
			t.Errorf("Lookup(%v) allocates %.1f times per call", v, a)
		}
	}
}

// TestHashLookupDuringWrites: readers Lookup one value while a writer
// inserts into the middle of its list, removes from it, and takes it down
// to one id and back. Every snapshot a reader sees is strictly ascending
// and is one of the states the writer passed through. Run it with -race.
func TestHashLookupDuringWrites(t *testing.T) {
	v := model.Str("v")
	h := NewHash()
	state := map[uint64]bool{}
	for id := uint64(10); id <= 100; id += 10 {
		h.Add(v, id)
		state[id] = true
	}
	type op struct {
		add bool
		id  uint64
	}
	var cycle []op
	for _, id := range []uint64{55, 15, 95, 35} {
		cycle = append(cycle, op{true, id})
	}
	for _, id := range []uint64{15, 55, 35, 95} {
		cycle = append(cycle, op{false, id})
	}
	for id := uint64(10); id < 100; id += 10 {
		cycle = append(cycle, op{false, id})
	}
	for id := uint64(90); id >= 10; id -= 10 {
		cycle = append(cycle, op{true, id})
	}
	// The states the writer passes through, as printed id lists.
	seen := map[string]bool{}
	snapshot := func() string {
		var ids []uint64
		for id := range state {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		return fmt.Sprint(ids)
	}
	seen[snapshot()] = true
	for _, o := range cycle {
		if o.add {
			state[o.id] = true
		} else {
			delete(state, o.id)
		}
		seen[snapshot()] = true
	}

	const rounds = 300
	var wg sync.WaitGroup
	done := make(chan struct{})
	errs := make(chan error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				var got []uint64
				h.Lookup(v, func(id uint64) bool { got = append(got, id); return true })
				for i := 1; i < len(got); i++ {
					if got[i-1] >= got[i] {
						errs <- fmt.Errorf("snapshot %v is not strictly ascending", got)
						return
					}
				}
				if !seen[fmt.Sprint(got)] {
					errs <- fmt.Errorf("snapshot %v is no state the writer passed through", got)
					return
				}
			}
		}()
	}
	for i := 0; i < rounds; i++ {
		for _, o := range cycle {
			if o.add {
				h.Add(v, o.id)
			} else {
				h.Remove(v, o.id)
			}
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := checkHash(h); err != nil {
		t.Error(err)
	}
}

// BenchmarkHashRemoveLong times a Remove from, and the Add back into, a
// 20 000-id list, the shape of a label index: each moves the tail of the
// list by one slot, so the first id costs the most.
func BenchmarkHashRemoveLong(b *testing.B) {
	for _, at := range []struct {
		name string
		id   uint64
	}{{"first", 0}, {"middle", 10000}, {"last", 19999}} {
		b.Run(at.name, func(b *testing.B) {
			h := NewHash()
			v := model.Str("N")
			for id := uint64(0); id < 20000; id++ {
				h.Add(v, id)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Remove(v, at.id)
				h.Add(v, at.id)
			}
			b.StopTimer()
			if h.Count(v) != 20000 {
				b.Fatalf("Count = %d, want 20000", h.Count(v))
			}
		})
	}
}
