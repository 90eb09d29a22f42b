package memgraph

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"gdbm/internal/model"
)

func triangle(t *testing.T) (*Graph, [3]model.NodeID) {
	t.Helper()
	g := New()
	var ids [3]model.NodeID
	for i, name := range []string{"a", "b", "c"} {
		id, err := g.AddNode("N", model.Props("name", name))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	mustEdge(t, g, "e", ids[0], ids[1])
	mustEdge(t, g, "e", ids[1], ids[2])
	mustEdge(t, g, "e", ids[2], ids[0])
	return g, ids
}

func mustEdge(t *testing.T, g *Graph, label string, from, to model.NodeID) model.EdgeID {
	t.Helper()
	id, err := g.AddEdge(label, from, to, nil)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestGraphOrderSize(t *testing.T) {
	g, _ := triangle(t)
	if g.Order() != 3 || g.Size() != 3 {
		t.Fatalf("order=%d size=%d", g.Order(), g.Size())
	}
}

func TestGraphNodeEdgeLookup(t *testing.T) {
	g, ids := triangle(t)
	n, err := g.Node(ids[0])
	if err != nil || n.Label != "N" {
		t.Fatalf("Node: %v %v", n, err)
	}
	if _, err := g.Node(999); !errors.Is(err, model.ErrNotFound) {
		t.Errorf("missing node: %v", err)
	}
	e, err := g.Edge(1)
	if err != nil || e.From != ids[0] || e.To != ids[1] {
		t.Fatalf("Edge: %+v %v", e, err)
	}
	if _, err := g.Edge(999); !errors.Is(err, model.ErrNotFound) {
		t.Errorf("missing edge: %v", err)
	}
}

func TestAddEdgeRequiresEndpoints(t *testing.T) {
	g := New()
	id, _ := g.AddNode("N", nil)
	if _, err := g.AddEdge("e", id, 42, nil); !errors.Is(err, model.ErrNotFound) {
		t.Errorf("missing target: %v", err)
	}
	if _, err := g.AddEdge("e", 42, id, nil); !errors.Is(err, model.ErrNotFound) {
		t.Errorf("missing source: %v", err)
	}
}

func TestNeighborsDirections(t *testing.T) {
	g, ids := triangle(t)
	count := func(dir model.Direction) int {
		n := 0
		g.Neighbors(ids[0], dir, func(model.Edge, model.Node) bool { n++; return true })
		return n
	}
	if count(model.Out) != 1 || count(model.In) != 1 || count(model.Both) != 2 {
		t.Errorf("neighbor counts out=%d in=%d both=%d", count(model.Out), count(model.In), count(model.Both))
	}
	// Out neighbor of a is b.
	g.Neighbors(ids[0], model.Out, func(e model.Edge, n model.Node) bool {
		if n.ID != ids[1] {
			t.Errorf("out neighbor = %d, want %d", n.ID, ids[1])
		}
		return true
	})
	if err := g.Neighbors(999, model.Out, func(model.Edge, model.Node) bool { return true }); !errors.Is(err, model.ErrNotFound) {
		t.Errorf("missing node: %v", err)
	}
}

func TestDegree(t *testing.T) {
	g, ids := triangle(t)
	for _, id := range ids {
		for dir, want := range map[model.Direction]int{model.Out: 1, model.In: 1, model.Both: 2} {
			d, err := g.Degree(id, dir)
			if err != nil || d != want {
				t.Errorf("Degree(%d, %v) = %d, %v; want %d", id, dir, d, err, want)
			}
		}
	}
	if _, err := g.Degree(999, model.Out); !errors.Is(err, model.ErrNotFound) {
		t.Errorf("missing node degree: %v", err)
	}
}

func TestRemoveEdge(t *testing.T) {
	g, ids := triangle(t)
	if err := g.RemoveEdge(1); err != nil {
		t.Fatal(err)
	}
	if g.Size() != 2 {
		t.Errorf("size after removal = %d", g.Size())
	}
	if d, _ := g.Degree(ids[0], model.Out); d != 0 {
		t.Errorf("out degree after removal = %d", d)
	}
	if err := g.RemoveEdge(1); !errors.Is(err, model.ErrNotFound) {
		t.Errorf("double remove: %v", err)
	}
}

func TestRemoveNodeCascades(t *testing.T) {
	g, ids := triangle(t)
	if err := g.RemoveNode(ids[0]); err != nil {
		t.Fatal(err)
	}
	if g.Order() != 2 || g.Size() != 1 {
		t.Errorf("order=%d size=%d after cascade", g.Order(), g.Size())
	}
	if err := g.RemoveNode(ids[0]); !errors.Is(err, model.ErrNotFound) {
		t.Errorf("double remove: %v", err)
	}
}

// TestRestoreFromKeepsIDsMonotone: a rollback to a snapshot keeps the
// ids issued since taken, so the next insert gets a fresh id, the restored
// state reads them as absent, and the view agrees with the store.
func TestRestoreFromKeepsIDsMonotone(t *testing.T) {
	g, ids := triangle(t)
	snap := g.Snapshot()
	n, err := g.AddNode("N", nil)
	if err != nil {
		t.Fatal(err)
	}
	e := mustEdge(t, g, "e", ids[0], n)
	g.RestoreFrom(snap)

	if _, err := g.Node(n); !errors.Is(err, model.ErrNotFound) {
		t.Errorf("rolled-back node %d still reads: %v", n, err)
	}
	if _, err := g.Edge(e); !errors.Is(err, model.ErrNotFound) {
		t.Errorf("rolled-back edge %d still reads: %v", e, err)
	}
	n2, err := g.AddNode("N", nil)
	if err != nil {
		t.Fatal(err)
	}
	e2 := mustEdge(t, g, "e", ids[0], n2)
	if n2 <= n || e2 <= e {
		t.Errorf("after restore AddNode = %d, AddEdge = %d; want ids past the rolled-back %d and %d", n2, e2, n, e)
	}
	if g.Order() != 4 || g.Size() != 4 {
		t.Errorf("order/size = %d/%d, want 4/4", g.Order(), g.Size())
	}
	view, release, err := g.AcquireView()
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if _, err := view.Node(n); !errors.Is(err, model.ErrNotFound) {
		t.Errorf("the view reads rolled-back node %d: %v", n, err)
	}
	if got, err := view.Node(n2); err != nil || got.ID != n2 {
		t.Errorf("view Node(%d) = %+v, %v", n2, got, err)
	}
	if view.Order() != 4 || view.Size() != 4 {
		t.Errorf("view order/size = %d/%d, want 4/4", view.Order(), view.Size())
	}
}

// TestRestoreFromInvalidatesPlanStats: a rollback restore is one mutation
// to the epoch but may undo many, so statistics taken inside the rolled
// back batch must not be served after it, however large they are.
func TestRestoreFromInvalidatesPlanStats(t *testing.T) {
	g := New()
	for i := 0; i < 10; i++ {
		if _, err := g.AddNode("P", nil); err != nil {
			t.Fatal(err)
		}
	}
	snap := g.Snapshot()
	for i := 0; i < 90; i++ {
		if _, err := g.AddNode("P", nil); err != nil {
			t.Fatal(err)
		}
	}
	if st, err := g.PlanStats(); err != nil || st.Nodes != 100 {
		t.Fatalf("PlanStats inside the batch = %+v, %v; want 100 nodes", st, err)
	}
	g.RestoreFrom(snap)
	if st, err := g.PlanStats(); err != nil || st.Nodes != 10 {
		t.Fatalf("PlanStats after the restore = %+v, %v; want 10 nodes", st, err)
	}
}

// TestSnapshotPropsSurviveLiveWrites: Snapshot shares the stored property
// maps, so a property write on the live graph afterwards must replace the
// live map and leave every map the snapshot holds as it was.
func TestSnapshotPropsSurviveLiveWrites(t *testing.T) {
	g, ids := triangle(t)
	if err := g.SetEdgeProp(1, "w", model.Int(1)); err != nil {
		t.Fatal(err)
	}
	snap := g.Snapshot()
	nodeProps, _ := snap.Node(ids[0])
	edgeProps, _ := snap.Edge(1)

	for _, w := range []struct {
		key string
		v   model.Value
	}{{"name", model.Str("changed")}, {"age", model.Int(7)}} {
		if err := g.SetNodeProp(ids[0], w.key, w.v); err != nil {
			t.Fatal(err)
		}
		if err := g.SetEdgeProp(1, w.key, w.v); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.SetEdgeProp(1, "w", model.Int(2)); err != nil {
		t.Fatal(err)
	}

	if n, _ := snap.Node(ids[0]); !n.Props.Equal(model.Props("name", "a")) || !nodeProps.Props.Equal(model.Props("name", "a")) {
		t.Errorf("snapshot node props = %v (read before the writes: %v), want {name: a}", n.Props, nodeProps.Props)
	}
	if e, _ := snap.Edge(1); !e.Props.Equal(model.Props("w", 1)) || !edgeProps.Props.Equal(model.Props("w", 1)) {
		t.Errorf("snapshot edge props = %v (read before the writes: %v), want {w: 1}", e.Props, edgeProps.Props)
	}
	if n, _ := g.Node(ids[0]); !n.Props.Equal(model.Props("name", "changed", "age", 7)) {
		t.Errorf("live node props = %v", n.Props)
	}
	g.RestoreFrom(snap)
	if n, _ := g.Node(ids[0]); !n.Props.Equal(model.Props("name", "a")) {
		t.Errorf("restored node props = %v, want {name: a}", n.Props)
	}
	if e, _ := g.Edge(1); !e.Props.Equal(model.Props("w", 1)) {
		t.Errorf("restored edge props = %v, want {w: 1}", e.Props)
	}
}

// TestSnapshotCostFlat: Snapshot freezes the records where they are, so
// taking one before a write, as neograph's Update does, allocates the same
// at 1 000 nodes as at 100 000, and at 20 000 nodes, the memory
// workloads' size, takes under 0.1 ms.
func TestSnapshotCostFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a 100k-node graph")
	}
	chain := func(n int) *Graph {
		g := New()
		for i := 1; i <= n; i++ {
			if _, err := g.AddNode("N", model.Props("rank", i)); err != nil {
				t.Fatal(err)
			}
			if i > 1 {
				mustEdge(t, g, "next", model.NodeID(i-1), model.NodeID(i))
			}
		}
		return g
	}
	allocsAt := func(g *Graph) float64 {
		v := int64(0)
		return testing.AllocsPerRun(50, func() {
			if s := g.Snapshot(); s.Order() != g.Order() {
				t.Fatalf("snapshot order %d, graph %d", s.Order(), g.Order())
			}
			v++
			if err := g.SetNodeProp(7, "hits", model.Int(v)); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocsAt(chain(1_000)), allocsAt(chain(100_000))
	t.Logf("allocs per Snapshot and write: 1k=%.0f 100k=%.0f", small, large)
	if large > small {
		t.Errorf("Snapshot allocates with graph size: 1k=%.0f 100k=%.0f", small, large)
	}
	g := chain(20_000)
	const runs = 200
	start := time.Now()
	for i := 0; i < runs; i++ {
		g.Snapshot()
	}
	if per := time.Since(start) / runs; per > 100*time.Microsecond {
		t.Errorf("Snapshot of 20 000 nodes takes %v, want under 0.1 ms", per)
	}
}

func TestSetProps(t *testing.T) {
	g, ids := triangle(t)
	if err := g.SetNodeProp(ids[0], "age", model.Int(3)); err != nil {
		t.Fatal(err)
	}
	n, _ := g.Node(ids[0])
	if v, _ := n.Props["age"].AsInt(); v != 3 {
		t.Errorf("age = %v", n.Props["age"])
	}
	if err := g.SetEdgeProp(1, "w", model.Float(0.5)); err != nil {
		t.Fatal(err)
	}
	e, _ := g.Edge(1)
	if v, _ := e.Props["w"].AsFloat(); v != 0.5 {
		t.Errorf("w = %v", e.Props["w"])
	}
	if err := g.SetNodeProp(999, "x", model.Int(1)); !errors.Is(err, model.ErrNotFound) {
		t.Errorf("missing node prop: %v", err)
	}
	if err := g.SetEdgeProp(999, "x", model.Int(1)); !errors.Is(err, model.ErrNotFound) {
		t.Errorf("missing edge prop: %v", err)
	}
}

func TestPropsAreCopiedOnInsert(t *testing.T) {
	g := New()
	p := model.Props("k", 1)
	id, _ := g.AddNode("N", p)
	p["k"] = model.Int(2)
	n, _ := g.Node(id)
	if v, _ := n.Props["k"].AsInt(); v != 1 {
		t.Error("insert should copy the property map")
	}
}

func TestIterationEarlyStop(t *testing.T) {
	g, _ := triangle(t)
	n := 0
	g.Nodes(func(model.Node) bool { n++; return false })
	if n != 1 {
		t.Errorf("Nodes early stop visited %d", n)
	}
	n = 0
	g.Edges(func(model.Edge) bool { n++; return false })
	if n != 1 {
		t.Errorf("Edges early stop visited %d", n)
	}
}

// Property: for any sequence of edge insertions over k nodes, the sum of out
// degrees equals the number of edges (handshake invariant, directed form).
func TestDegreeSumInvariantQuick(t *testing.T) {
	f := func(pairs []struct{ A, B uint8 }) bool {
		g := New()
		const k = 16
		ids := make([]model.NodeID, k)
		for i := range ids {
			ids[i], _ = g.AddNode("N", nil)
		}
		for _, p := range pairs {
			g.AddEdge("e", ids[int(p.A)%k], ids[int(p.B)%k], nil)
		}
		sumOut, sumIn := 0, 0
		for _, id := range ids {
			o, _ := g.Degree(id, model.Out)
			i, _ := g.Degree(id, model.In)
			sumOut += o
			sumIn += i
		}
		return sumOut == g.Size() && sumIn == g.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// wantNeighborIDs renders what Neighbors enumerates as id pairs, filtered
// by label: the order AppendNeighborIDs promises.
func wantNeighborIDs(t *testing.T, g *Graph, id model.NodeID, dir model.Direction, label string) []model.NeighborID {
	t.Helper()
	var want []model.NeighborID
	if err := g.Neighbors(id, dir, func(e model.Edge, n model.Node) bool {
		if label == "" || e.Label == label {
			want = append(want, model.NeighborID{Edge: e.ID, Node: n.ID})
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestAppendNeighborIDsMatchesNeighbors: the id-adjacency capability and
// Neighbors are one enumeration — element for element, in order — for
// every direction, with and without a label, over parallel edges, a
// self-loop (twice under Both) and lists reordered by swap-removal.
func TestAppendNeighborIDsMatchesNeighbors(t *testing.T) {
	g := New()
	var ids []model.NodeID
	for i := 0; i < 6; i++ {
		id, _ := g.AddNode("N", nil)
		ids = append(ids, id)
	}
	var eids []model.EdgeID
	add := func(label string, a, b int) {
		eid, err := g.AddEdge(label, ids[a], ids[b], nil)
		if err != nil {
			t.Fatal(err)
		}
		eids = append(eids, eid)
	}
	for j := 0; j < 24; j++ {
		add([]string{"x", "y", "z"}[j%3], j%6, (j*5+1)%6)
	}
	add("x", 0, 1)
	add("x", 0, 1) // parallel
	add("y", 2, 2) // self-loop
	check := func(stage string) {
		t.Helper()
		for _, id := range ids {
			for _, dir := range []model.Direction{model.Out, model.In, model.Both} {
				for _, label := range []string{"", "x", "y", "none"} {
					want := wantNeighborIDs(t, g, id, dir, label)
					got, handled, err := g.AppendNeighborIDs(nil, id, dir, label)
					if err != nil || !handled {
						t.Fatalf("%s: node %d %v %q: handled=%v err=%v", stage, id, dir, label, handled, err)
					}
					if len(got) != len(want) {
						t.Fatalf("%s: node %d %v %q: %d pairs, want %d", stage, id, dir, label, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s: node %d %v %q: pair %d = %v, want %v", stage, id, dir, label, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
	check("loaded")
	// Removing from the front and middle of the lists swaps their tails in.
	for _, k := range []int{0, 7, 13, 24} {
		if err := g.RemoveEdge(eids[k]); err != nil {
			t.Fatal(err)
		}
	}
	check("after swap-removals")

	// The buffer is appended to, not replaced; a missing node is NotFound.
	pre := []model.NeighborID{{Edge: 99, Node: 99}}
	got, _, err := g.AppendNeighborIDs(pre, ids[0], model.Out, "")
	if err != nil || len(got) < 2 || got[0] != pre[0] {
		t.Errorf("append onto a non-empty buffer = %v, %v", got, err)
	}
	if _, _, err := g.AppendNeighborIDs(nil, 9999, model.Both, ""); !errors.Is(err, model.ErrNotFound) {
		t.Errorf("missing node: err = %v, want ErrNotFound", err)
	}
}

// TestPutKeepsRecordsAtTheirIDs: PutNode and PutEdge add records at the
// ids they carry, past gaps and across blocks, sort an edge into its
// endpoints' lists by id whatever order it comes in, extend the ids issued,
// and refuse a taken slot or id 0.
func TestPutKeepsRecordsAtTheirIDs(t *testing.T) {
	g := New()
	for _, id := range []model.NodeID{3, 700, 1} {
		if err := g.PutNode(model.Node{ID: id, Label: "N"}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []model.Edge{{ID: 9, From: 3, To: 700}, {ID: 4, From: 3, To: 1}, {ID: 600, From: 700, To: 3}} {
		if err := g.PutEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	if g.Order() != 3 || g.Size() != 3 {
		t.Fatalf("order/size = %d/%d, want 3/3", g.Order(), g.Size())
	}
	if ids, _, _ := g.AppendNeighborIDs(nil, 3, model.Both, ""); !slices.Equal(ids, []model.NeighborID{{Edge: 4, Node: 1}, {Edge: 9, Node: 700}, {Edge: 600, Node: 700}}) {
		t.Errorf("node 3's adjacency = %v", ids)
	}
	for _, err := range []error{
		g.PutNode(model.Node{ID: 3}), g.PutNode(model.Node{}),
		g.PutEdge(model.Edge{ID: 9, From: 3, To: 700}), g.PutEdge(model.Edge{}),
	} {
		if !errors.Is(err, model.ErrAlreadyExists) {
			t.Errorf("put over a taken slot or id 0: %v", err)
		}
	}
	if err := g.PutEdge(model.Edge{ID: 10, From: 3, To: 2}); !errors.Is(err, model.ErrNotFound) {
		t.Errorf("edge to a missing node: %v", err)
	}
	if id, _ := g.AddNode("N", nil); id != 701 {
		t.Errorf("AddNode after PutNode(700) = %d, want 701", id)
	}
	if id, _ := g.AddEdge("e", 1, 3, nil); id != 601 {
		t.Errorf("AddEdge after PutEdge(600) = %d, want 601", id)
	}
}
