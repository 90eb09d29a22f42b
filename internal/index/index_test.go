package index

import (
	"testing"
	"testing/quick"

	"gdbm/internal/memgraph"
	"gdbm/internal/model"
)

func TestBitsetBasics(t *testing.T) {
	var b Bitset
	if !b.Empty() || b.Count() != 0 {
		t.Fatal("zero bitset should be empty")
	}
	b.Set(3)
	b.Set(64)
	b.Set(130)
	if b.Count() != 3 {
		t.Errorf("count = %d", b.Count())
	}
	if !b.Test(3) || !b.Test(64) || !b.Test(130) || b.Test(4) {
		t.Error("Test results wrong")
	}
	b.Clear(64)
	if b.Test(64) || b.Count() != 2 {
		t.Error("Clear failed")
	}
	b.Clear(100000) // no-op beyond range
	var ids []uint64
	b.Iterate(func(id uint64) bool { ids = append(ids, id); return true })
	if len(ids) != 2 || ids[0] != 3 || ids[1] != 130 {
		t.Errorf("iterate = %v", ids)
	}
	// Early stop.
	n := 0
	b.Iterate(func(uint64) bool { n++; return false })
	if n != 1 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestBitsetAlgebra(t *testing.T) {
	a, b := &Bitset{}, &Bitset{}
	for _, id := range []uint64{1, 2, 3, 200} {
		a.Set(id)
	}
	for _, id := range []uint64{2, 3, 4} {
		b.Set(id)
	}
	and := a.Clone()
	and.And(b)
	if and.Count() != 2 || !and.Test(2) || !and.Test(3) {
		t.Errorf("And wrong: count=%d", and.Count())
	}
	or := a.Clone()
	or.Or(b)
	if or.Count() != 5 {
		t.Errorf("Or count = %d", or.Count())
	}
	not := a.Clone()
	not.AndNot(b)
	if not.Count() != 2 || !not.Test(1) || !not.Test(200) {
		t.Errorf("AndNot wrong: count=%d", not.Count())
	}
	// Clone independence.
	c := a.Clone()
	c.Clear(1)
	if !a.Test(1) {
		t.Error("Clone not independent")
	}
}

func allIndexes(t *testing.T) map[string]Index {
	t.Helper()
	return map[string]Index{
		"bitmap": NewBitmap(),
		"hash":   NewHash(),
	}
}

func TestIndexAddLookupRemove(t *testing.T) {
	for name, idx := range allIndexes(t) {
		t.Run(name, func(t *testing.T) {
			idx.Add(model.Str("red"), 1)
			idx.Add(model.Str("red"), 2)
			idx.Add(model.Str("blue"), 3)
			if got := idx.Count(model.Str("red")); got != 2 {
				t.Errorf("count red = %d", got)
			}
			var ids []uint64
			idx.Lookup(model.Str("red"), func(id uint64) bool { ids = append(ids, id); return true })
			if len(ids) != 2 {
				t.Errorf("lookup red = %v", ids)
			}
			idx.Remove(model.Str("red"), 1)
			if got := idx.Count(model.Str("red")); got != 1 {
				t.Errorf("count after remove = %d", got)
			}
			if got := idx.Count(model.Str("missing")); got != 0 {
				t.Errorf("count missing = %d", got)
			}
			// Removing a non-member is a no-op.
			if err := idx.Remove(model.Str("missing"), 9); err != nil {
				t.Errorf("remove missing: %v", err)
			}
			// Early stop in Lookup.
			idx.Add(model.Int(5), 10)
			idx.Add(model.Int(5), 11)
			n := 0
			idx.Lookup(model.Int(5), func(uint64) bool { n++; return false })
			if n != 1 {
				t.Errorf("early stop visited %d", n)
			}
		})
	}
}

func TestIndexValueKindsDistinct(t *testing.T) {
	for name, idx := range allIndexes(t) {
		t.Run(name, func(t *testing.T) {
			idx.Add(model.Str("1"), 1)
			idx.Add(model.Int(1), 2)
			if idx.Count(model.Str("1")) != 1 || idx.Count(model.Int(1)) != 1 {
				t.Error("string and int values must not collide")
			}
		})
	}
}

func TestManagerLifecycle(t *testing.T) {
	m := NewManager()
	if _, err := m.Create(Nodes, "name", KindHash); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(Nodes, "name", KindBitmap); err == nil {
		t.Error("duplicate index should fail")
	}
	if _, err := m.Create(Edges, "weight", KindBitmap); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(Nodes, "x", "bogus"); err == nil {
		t.Error("unknown kind should fail")
	}
	for _, want := range []struct {
		t    Target
		prop string
		kind string
	}{{Nodes, "name", "hash"}, {Edges, "weight", "bitmap"}} {
		if idx, ok := m.Get(want.t, want.prop); !ok || idx.Kind() != want.kind {
			t.Errorf("index on %s %q: present %v, want kind %s", want.t, want.prop, ok, want.kind)
		}
	}
	if _, ok := m.Get(Nodes, "x"); ok {
		t.Error("a failed Create left an index behind")
	}
}

func TestManagerWriteHooks(t *testing.T) {
	m := NewManager()
	labelIdx, _ := m.Create(Nodes, "", KindBitmap)
	nameIdx, _ := m.Create(Nodes, "name", KindHash)

	n := model.Node{ID: 7, Label: "Person", Props: model.Props("name", "ada")}
	m.OnNodeWrite(n, "", nil)
	if labelIdx.Count(model.Str("Person")) != 1 {
		t.Error("label not indexed")
	}
	if nameIdx.Count(model.Str("ada")) != 1 {
		t.Error("name not indexed")
	}
	// Property change: old value removed, new added.
	n2 := model.Node{ID: 7, Label: "Person", Props: model.Props("name", "lovelace")}
	m.OnNodeWrite(n2, "Person", n.Props)
	if nameIdx.Count(model.Str("ada")) != 0 || nameIdx.Count(model.Str("lovelace")) != 1 {
		t.Error("property change not reflected")
	}
	// Delete.
	m.OnNodeDelete(n2)
	if labelIdx.Count(model.Str("Person")) != 0 || nameIdx.Count(model.Str("lovelace")) != 0 {
		t.Error("delete not reflected")
	}
}

func TestManagerEdgeHooks(t *testing.T) {
	m := NewManager()
	idx, _ := m.Create(Edges, "", KindHash)
	e := model.Edge{ID: 3, Label: "knows"}
	m.OnEdgeWrite(e, "", nil)
	if idx.Count(model.Str("knows")) != 1 {
		t.Error("edge label not indexed")
	}
	m.OnEdgeDelete(e)
	if idx.Count(model.Str("knows")) != 0 {
		t.Error("edge delete not reflected")
	}
}

// Property: both index kinds agree with a reference map on arbitrary
// add/remove sequences.
func TestIndexEquivalenceQuick(t *testing.T) {
	type op struct {
		Val uint8
		ID  uint8
		Del bool
	}
	f := func(ops []op) bool {
		idxs := []Index{NewBitmap(), NewHash()}
		ref := map[uint8]map[uint8]bool{}
		for _, o := range ops {
			v := model.Int(int64(o.Val))
			if o.Del {
				for _, idx := range idxs {
					idx.Remove(v, uint64(o.ID))
				}
				if s := ref[o.Val]; s != nil {
					delete(s, o.ID)
				}
			} else {
				for _, idx := range idxs {
					idx.Add(v, uint64(o.ID))
				}
				if ref[o.Val] == nil {
					ref[o.Val] = map[uint8]bool{}
				}
				ref[o.Val][o.ID] = true
			}
		}
		for val, s := range ref {
			for _, idx := range idxs {
				if idx.Count(model.Int(int64(val))) != len(s) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBitmapSetAlgebraAccessor(t *testing.T) {
	b := NewBitmap()
	b.Add(model.Str("a"), 1)
	b.Add(model.Str("a"), 2)
	b.Add(model.Str("b"), 2)
	s := b.Set(model.Str("a"))
	s.And(b.Set(model.Str("b")))
	if s.Count() != 1 || !s.Test(2) {
		t.Error("bitmap algebra through Set() wrong")
	}
	if b.Set(model.Str("zzz")).Count() != 0 {
		t.Error("missing value should give empty set")
	}
}

// TestManagerRebuild: Rebuild drops entries the graph no longer backs and
// refills every index, node and edge, label and property, from the graph.
func TestManagerRebuild(t *testing.T) {
	g := memgraph.New()
	a, _ := g.AddNode("P", model.Props("name", "ada"))
	b, _ := g.AddNode("P", model.Props("name", "bob"))
	e, _ := g.AddEdge("knows", a, b, model.Props("since", 2001))
	m := NewManager()
	labels, _ := m.Create(Nodes, "", KindHash)
	names, _ := m.Create(Nodes, "name", KindBitmap)
	since, _ := m.Create(Edges, "since", KindHash)
	labels.Add(model.Str("Q"), 99)
	names.Add(model.Str("ghost"), uint64(a))
	since.Add(model.Int(1999), uint64(e))
	if err := m.Rebuild(g); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		idx  Index
		v    model.Value
		want int
	}{
		{labels, model.Str("P"), 2}, {labels, model.Str("Q"), 0},
		{names, model.Str("ada"), 1}, {names, model.Str("ghost"), 0},
		{since, model.Int(2001), 1}, {since, model.Int(1999), 0},
	} {
		if got := c.idx.Count(c.v); got != c.want {
			t.Errorf("%s index Count(%v) = %d, want %d", c.idx.Kind(), c.v, got, c.want)
		}
	}
}
