package adj

import (
	"flag"
	"fmt"
	"math/rand"
	"testing"

	"gdbm/internal/model"
)

var patchSeed = flag.Int64("seed", 0, "replay TestPatchMatchesFullRender with this seed only")

// toyStore is a mapSource mutated the way the stores mutate, marking a
// Versioned by the rules its comment states.
type toyStore struct {
	*mapSource
	v     Versioned
	epoch uint64
}

func newToyStore() *toyStore {
	return &toyStore{mapSource: newMapSource()}
}

func (st *toyStore) addNodeP(label string, props model.Properties) model.NodeID {
	st.epoch += 2
	st.maxN++
	st.nodes[st.maxN] = model.Node{ID: st.maxN, Label: label, Props: props}
	st.v.MarkNode(st.maxN)
	return st.maxN
}

func (st *toyStore) link(label string, from, to model.NodeID) model.EdgeID {
	st.epoch += 2
	id := st.addEdge(label, from, to)
	st.v.MarkLink(id, from, to)
	return id
}

func (st *toyStore) unlink(id model.EdgeID) {
	st.epoch += 2
	e := st.edges[id]
	delete(st.edges, id)
	st.outIdx, st.inIdx = nil, nil
	st.v.MarkLink(id, e.From, e.To)
}

func (st *toyStore) removeNode(id model.NodeID) {
	for eid, e := range st.edges {
		if e.From == id || e.To == id {
			st.unlink(eid)
		}
	}
	st.epoch += 2
	delete(st.nodes, id)
	st.v.MarkNode(id)
}

// setNodeProp replaces the map, as the stores do: snapshots share it.
func (st *toyStore) setNodeProp(id model.NodeID, key string, val model.Value) {
	st.epoch += 2
	n := st.nodes[id]
	n.Props = n.Props.Clone()
	if n.Props == nil {
		n.Props = model.Properties{}
	}
	n.Props[key] = val
	st.nodes[id] = n
	st.v.MarkNode(id)
}

func (st *toyStore) setEdgeProp(id model.EdgeID, key string, val model.Value) {
	st.epoch += 2
	e := st.edges[id]
	e.Props = e.Props.Clone()
	if e.Props == nil {
		e.Props = model.Properties{}
	}
	e.Props[key] = val
	st.edges[id] = e
	st.v.MarkEdge(id)
}

func (st *toyStore) pin(t testing.TB) *Snapshot {
	t.Helper()
	s, release, err := st.v.Pin(st.epoch, st.mapSource)
	if err != nil {
		t.Fatalf("Pin: %v", err)
	}
	release()
	return s
}

func (st *toyStore) someNode(rng *rand.Rand) (model.NodeID, bool) {
	for tries := 0; tries < 8; tries++ {
		// Crowd the block boundary and the partially filled last block.
		id := model.NodeID(rng.Intn(int(st.maxN)) + 1)
		if rng.Intn(3) == 0 {
			id = model.NodeID(blockSize - 2 + rng.Intn(5))
		}
		if _, ok := st.nodes[id]; ok {
			return id, true
		}
	}
	return 0, false
}

func (st *toyStore) someEdge(rng *rand.Rand) (model.EdgeID, bool) {
	for tries := 0; tries < 8 && st.maxE > 0; tries++ {
		id := model.EdgeID(rng.Intn(int(st.maxE)) + 1)
		if _, ok := st.edges[id]; ok {
			return id, true
		}
	}
	return 0, false
}

// TestPatchMatchesFullRender drives seeded random mutations through the
// marking rules and checks after every step that the patched snapshot is
// indistinguishable from a full render of the same store, and that the
// snapshot pinned before the step still renders the state it was pinned
// at.
func TestPatchMatchesFullRender(t *testing.T) {
	seeds := []int64{1, 2}
	if *patchSeed != 0 {
		seeds = []int64{*patchSeed}
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			st := newToyStore()
			labels := []string{"", "a", "b"}
			for i := 0; i < blockSize+40; i++ { // into the second block
				st.addNodeP(labels[i%3], model.Props("rank", i%7))
			}
			for i := 0; i < blockSize+40; i++ { // likewise
				from, _ := st.someNode(rng)
				to, _ := st.someNode(rng)
				st.link(labels[i%3], from, to)
			}
			prev := st.pin(t)
			prevDump := dump(t, prev)
			for step := 0; step < 40; step++ {
				// One to three mutations per publish, so dirty sets mix.
				for k := rng.Intn(3); k >= 0; k-- {
					st.mutate(rng, labels)
				}
				cur, got := st.checkedPin(t, fmt.Sprintf("seed %d step %d (replay with -seed=%d)", seed, step, seed))
				if again := dump(t, prev); again != prevDump {
					t.Fatalf("seed %d step %d: the snapshot pinned before the step changed (replay with -seed=%d)", seed, step, seed)
				}
				prev, prevDump = cur, got
			}
		})
	}
}

// checkedPin pins st and fails t, naming where, unless the patched
// snapshot renders as a full Build of the store does. It returns the
// snapshot and its render.
func (st *toyStore) checkedPin(t *testing.T, where string) (*Snapshot, string) {
	t.Helper()
	cur := st.pin(t)
	got := dump(t, cur)
	full, err := Build(st.mapSource, st.epoch)
	if err != nil {
		t.Fatal(err)
	}
	if want := dump(t, full); got != want {
		t.Fatalf("%s: patched render differs from full render\npatched:\n%s\nfull:\n%s", where, got, want)
	}
	return cur, got
}

func (st *toyStore) mutate(rng *rand.Rand, labels []string) {
	switch op := rng.Intn(10); {
	case op < 2:
		st.addNodeP(labels[rng.Intn(3)], model.Props("rank", rng.Intn(9)))
	case op < 5:
		from, ok1 := st.someNode(rng)
		to, ok2 := st.someNode(rng)
		if rng.Intn(6) == 0 {
			to = from // self-loop
		}
		if ok1 && ok2 {
			st.link(labels[rng.Intn(3)], from, to)
		}
	case op < 6:
		if id, ok := st.someEdge(rng); ok {
			st.unlink(id)
		}
	case op < 7:
		if id, ok := st.someNode(rng); ok {
			st.removeNode(id) // cascades into whatever blocks hold its edges
		}
	case op < 9:
		if id, ok := st.someNode(rng); ok {
			st.setNodeProp(id, []string{"rank", "hits"}[rng.Intn(2)], model.Int(int64(rng.Intn(50))))
		}
	default:
		if id, ok := st.someEdge(rng); ok {
			st.setEdgeProp(id, "w", model.Int(int64(rng.Intn(50))))
		}
	}
}

// sameRows reports whether two CSR directions are one array, not copies.
func sameRows(a, b rows) bool {
	return len(a.buf) > 0 && &a.buf[0] == &b.buf[0] && &a.offs[0] == &b.offs[0]
}

// TestPatchShares pins down what a patched block shares with its
// predecessor: everything the marks did not name.
func TestPatchShares(t *testing.T) {
	st := newToyStore()
	for i := 0; i < 3*blockSize-10; i++ {
		st.addNodeP("x", nil)
	}
	st.link("e", 1, 2)
	st.link("e", 600, 601)
	s1 := st.pin(t)

	st.setNodeProp(7, "hits", model.Int(1))
	s2 := st.pin(t)
	b1, b2 := s1.nb[0], s2.nb[0]
	if b1 == b2 {
		t.Fatal("the block of a changed record was reused")
	}
	if !sameRows(b1.out, b2.out) || !sameRows(b1.in, b2.in) {
		t.Error("a property write copied CSR rows")
	}
	if s2.nb[1] != s1.nb[1] || s2.nb[2] != s1.nb[2] || s2.eb[0] != s1.eb[0] {
		t.Error("clean blocks were not shared")
	}

	st.link("e", 3, 700) // out row in block 0, in row in block 1
	s3 := st.pin(t)
	if sameRows(s3.nb[0].out, s2.nb[0].out) || !sameRows(s3.nb[0].in, s2.nb[0].in) {
		t.Error("block 0: want the out rows re-encoded and the in rows shared")
	}
	if !sameRows(s3.nb[1].out, s2.nb[1].out) || sameRows(s3.nb[1].in, s2.nb[1].in) {
		t.Error("block 1: want the out rows shared and the in rows re-encoded")
	}
	if s3.nb[2] != s2.nb[2] {
		t.Error("block 2 is clean and was not shared")
	}
	if n, err := s2.Degree(3, model.Out); err != nil || n != 0 {
		t.Errorf("the predecessor sees the new edge: degree %d, %v", n, err)
	}
}

// TestPatchWorkBound counts the Source reads of a re-pin: they follow the
// records touched, not the 512-ID block and not the 6 000-node graph.
func TestPatchWorkBound(t *testing.T) {
	st := newToyStore()
	const n = 6000
	for i := 0; i < n; i++ {
		st.addNodeP("x", model.Props("idx", i))
	}
	for i := 0; i < 200; i++ {
		st.link("e", model.NodeID(i*29%n+1), model.NodeID(i*31%n+1))
	}
	st.pin(t)

	st.setNodeProp(1234, "hits", model.Int(1))
	st.calls = struct{ node, edge, out, in int }{}
	st.pin(t)
	if c := st.calls; c.node > 1 || c.edge+c.out+c.in != 0 {
		t.Errorf("re-pin after one SetNodeProp read %+v; want at most one node record and nothing else", c)
	}

	st.link("e", 100, 5000)
	st.calls = struct{ node, edge, out, in int }{}
	st.pin(t)
	if c := st.calls; c.edge > 1 || c.out+c.in > 2 || c.node != 0 {
		t.Errorf("re-pin after one AddEdge read %+v; want at most one edge record and two incident lists", c)
	}
}

// TestMarksBeforeFirstPublish: while the next render is a full one anyway,
// marks are dropped, so a bulk load does not collect a dirty set the size
// of the graph.
func TestMarksBeforeFirstPublish(t *testing.T) {
	st := newToyStore()
	for i := 0; i < 100; i++ {
		st.addNodeP("x", nil)
	}
	st.link("e", 1, 2)
	if st.v.dirtyN != nil || st.v.dirtyE != nil {
		t.Fatal("marks were recorded before anything was published")
	}
	st.pin(t)
	st.v.MarkAll()
	st.setNodeProp(1, "k", model.Int(1))
	if st.v.dirtyN != nil {
		t.Fatal("marks were recorded while a full render is pending")
	}
	if n, err := st.pin(t).Node(1); err != nil || n.Props["k"] != model.Int(1) {
		t.Fatalf("full render after MarkAll misses the write: %+v, %v", n, err)
	}
}

// FuzzPatchMatchesBuild lets the input drive the store: each three bytes
// are an operation — add a node, link, unlink, remove a node, set a node
// or an edge property, pin — and its two arguments, which pick IDs 511,
// 512 and 513 around the first block boundary a quarter of the time.
// After every pin the patched snapshot must match a full Build (checkedPin).
func FuzzPatchMatchesBuild(f *testing.F) {
	f.Add([]byte{6, 0, 0})
	// Remove node 512, pin, add a node, link 513->511, pin.
	f.Add([]byte{3, 4, 0, 6, 0, 0, 0, 1, 0, 1, 8, 0, 6, 0, 0})
	// Unlink edges 512 and 513, set edge 511's property, pin, link 511->512.
	f.Add([]byte{2, 4, 0, 2, 8, 0, 5, 0, 9, 6, 0, 0, 1, 0, 4})
	// Set node 511's property, add a self-loop on 186, pin, remove 186.
	f.Add([]byte{4, 0, 3, 1, 5, 5, 6, 0, 0, 3, 5, 0})
	labels := []string{"", "a", "b"}
	f.Fuzz(func(t *testing.T, ops []byte) {
		ops = ops[:min(len(ops), 3*64)]
		st := newToyStore()
		const n = blockSize + 4 // IDs 1..516: the boundary and a partial second block
		for i := 0; i < n; i++ {
			st.addNodeP(labels[i%3], model.Props("rank", i%7))
		}
		for i := 0; i < n; i++ {
			st.link(labels[i%3], model.NodeID(i%n+1), model.NodeID(i*31%n+1))
		}
		st.pin(t)
		// pick maps a byte to an ID at most max.
		pick := func(a byte, max uint64) uint64 {
			if a&3 == 0 {
				return blockSize - 1 + uint64(a>>2)%3
			}
			return uint64(a)*37%max + 1
		}
		node := func(a byte) (model.NodeID, bool) {
			id := model.NodeID(pick(a, uint64(st.maxN)))
			_, ok := st.nodes[id]
			return id, ok
		}
		edge := func(a byte) (model.EdgeID, bool) {
			id := model.EdgeID(pick(a, uint64(st.maxE)))
			_, ok := st.edges[id]
			return id, ok
		}
		for step := 0; len(ops) >= 3; step++ {
			op, a, b := ops[0], ops[1], ops[2]
			ops = ops[3:]
			switch op % 7 {
			case 0:
				st.addNodeP(labels[a%3], model.Props("rank", int(b%9)))
			case 1:
				from, ok1 := node(a)
				to, ok2 := node(b)
				if ok1 && ok2 {
					st.link(labels[b%3], from, to)
				}
			case 2:
				if id, ok := edge(a); ok {
					st.unlink(id)
				}
			case 3:
				if id, ok := node(a); ok {
					st.removeNode(id)
				}
			case 4:
				if id, ok := node(a); ok {
					st.setNodeProp(id, "rank", model.Int(int64(b)))
				}
			case 5:
				if id, ok := edge(a); ok {
					st.setEdgeProp(id, "w", model.Int(int64(b)))
				}
			default:
				st.checkedPin(t, fmt.Sprintf("step %d", step))
			}
		}
		st.checkedPin(t, "last step")
	})
}
