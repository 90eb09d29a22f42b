package memgraph

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"gdbm/internal/model"
)

// refGraph is the map-based reference the slice layout is held to: one
// map per record kind and per adjacency direction, with the list order
// Graph promises (insertion order, a removal closing the gap in order).
type refGraph struct {
	nodes    map[model.NodeID]model.Node
	edges    map[model.EdgeID]model.Edge
	out, in  map[model.NodeID][]model.EdgeID
	nextNode model.NodeID
	nextEdge model.EdgeID
}

func newRef() *refGraph {
	return &refGraph{
		nodes: map[model.NodeID]model.Node{},
		edges: map[model.EdgeID]model.Edge{},
		out:   map[model.NodeID][]model.EdgeID{},
		in:    map[model.NodeID][]model.EdgeID{},
	}
}

func (r *refGraph) clone() *refGraph {
	c := newRef()
	c.nextNode, c.nextEdge = r.nextNode, r.nextEdge
	for id, n := range r.nodes {
		n.Props = n.Props.Clone()
		c.nodes[id] = n
		c.out[id] = slices.Clone(r.out[id])
		c.in[id] = slices.Clone(r.in[id])
	}
	for id, e := range r.edges {
		e.Props = e.Props.Clone()
		c.edges[id] = e
	}
	return c
}

func (r *refGraph) addNode(label string, props model.Properties) model.NodeID {
	r.nextNode++
	r.nodes[r.nextNode] = model.Node{ID: r.nextNode, Label: label, Props: props.Clone()}
	r.out[r.nextNode], r.in[r.nextNode] = nil, nil
	return r.nextNode
}

func (r *refGraph) addEdge(label string, from, to model.NodeID, props model.Properties) (model.EdgeID, error) {
	for _, id := range []model.NodeID{from, to} {
		if _, ok := r.nodes[id]; !ok {
			return 0, model.NodeNotFound(id)
		}
	}
	r.nextEdge++
	id := r.nextEdge
	r.edges[id] = model.Edge{ID: id, Label: label, From: from, To: to, Props: props.Clone()}
	r.out[from] = append(r.out[from], id)
	r.in[to] = append(r.in[to], id)
	return id, nil
}

func orderedRemove(s []model.EdgeID, id model.EdgeID) []model.EdgeID {
	i := slices.Index(s, id)
	return append(s[:i:i], s[i+1:]...)
}

func (r *refGraph) removeEdge(id model.EdgeID) error {
	e, ok := r.edges[id]
	if !ok {
		return model.EdgeNotFound(id)
	}
	r.out[e.From] = orderedRemove(r.out[e.From], id)
	r.in[e.To] = orderedRemove(r.in[e.To], id)
	delete(r.edges, id)
	return nil
}

func (r *refGraph) removeNode(id model.NodeID) error {
	if _, ok := r.nodes[id]; !ok {
		return model.NodeNotFound(id)
	}
	for _, eid := range append(slices.Clone(r.out[id]), r.in[id]...) {
		if _, ok := r.edges[eid]; ok { // a self-loop is in both lists
			r.removeEdge(eid)
		}
	}
	delete(r.nodes, id)
	delete(r.out, id)
	delete(r.in, id)
	return nil
}

func withRefProp(p model.Properties, key string, v model.Value) model.Properties {
	c := model.Properties{}
	for k, x := range p {
		c[k] = x
	}
	c[key] = v
	return c
}

func (r *refGraph) setNodeProp(id model.NodeID, key string, v model.Value) error {
	n, ok := r.nodes[id]
	if !ok {
		return model.NodeNotFound(id)
	}
	n.Props = withRefProp(n.Props, key, v)
	r.nodes[id] = n
	return nil
}

func (r *refGraph) setEdgeProp(id model.EdgeID, key string, v model.Value) error {
	e, ok := r.edges[id]
	if !ok {
		return model.EdgeNotFound(id)
	}
	e.Props = withRefProp(e.Props, key, v)
	r.edges[id] = e
	return nil
}

type neighbor struct {
	E model.Edge
	N model.Node
}

func (r *refGraph) neighbors(id model.NodeID, dir model.Direction) ([]neighbor, error) {
	if _, ok := r.nodes[id]; !ok {
		return nil, model.NodeNotFound(id)
	}
	var ns []neighbor
	if dir != model.In {
		for _, eid := range r.out[id] {
			e := r.edges[eid]
			ns = append(ns, neighbor{e, r.nodes[e.To]})
		}
	}
	if dir != model.Out {
		for _, eid := range r.in[id] {
			e := r.edges[eid]
			ns = append(ns, neighbor{e, r.nodes[e.From]})
		}
	}
	return ns, nil
}

func sortedKeys[K model.NodeID | model.EdgeID, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// sameErr fails t unless got and want are both nil or carry one message;
// format and args name the call.
func sameErr(t *testing.T, got, want error, format string, args ...any) {
	t.Helper()
	if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
		t.Fatalf("%s: err = %v, want %v", fmt.Sprintf(format, args...), got, want)
	}
}

// readGraph is what compareGraph reads: a Graph, or a view it froze.
type readGraph interface {
	model.Graph
	model.IDAdjacency
}

// compareGraph checks every read of g against r: counts, both iterators,
// and each probe id's record, degree and neighbourhood, errors included.
func compareGraph(t *testing.T, g readGraph, r *refGraph, nodeProbes []model.NodeID, edgeProbes []model.EdgeID) {
	t.Helper()
	if g.Order() != len(r.nodes) || g.Size() != len(r.edges) {
		t.Fatalf("order/size = %d/%d, want %d/%d", g.Order(), g.Size(), len(r.nodes), len(r.edges))
	}
	// Both iterators yield ascending ids, so the sets compare as sorted
	// slices.
	nodes := []model.Node{}
	g.Nodes(func(n model.Node) bool { nodes = append(nodes, n); return true })
	edges := []model.Edge{}
	g.Edges(func(e model.Edge) bool { edges = append(edges, e); return true })
	wantNodes := []model.Node{}
	for _, id := range sortedKeys(r.nodes) {
		wantNodes = append(wantNodes, r.nodes[id])
	}
	wantEdges := []model.Edge{}
	for _, id := range sortedKeys(r.edges) {
		wantEdges = append(wantEdges, r.edges[id])
	}
	if !reflect.DeepEqual(nodes, wantNodes) {
		t.Fatalf("Nodes = %v, want %v", nodes, wantNodes)
	}
	if !reflect.DeepEqual(edges, wantEdges) {
		t.Fatalf("Edges = %v, want %v", edges, wantEdges)
	}

	for _, id := range nodeProbes {
		n, err := g.Node(id)
		wn, ok := r.nodes[id]
		var werr error
		if !ok {
			werr = model.NodeNotFound(id)
		}
		sameErr(t, err, werr, "Node(%d)", id)
		if !reflect.DeepEqual(n, wn) {
			t.Fatalf("Node(%d) = %+v, want %+v", id, n, wn)
		}
		for _, dir := range []model.Direction{model.Out, model.In, model.Both} {
			want, werr := r.neighbors(id, dir)
			var got []neighbor
			err := g.Neighbors(id, dir, func(e model.Edge, n model.Node) bool {
				got = append(got, neighbor{e, n})
				return true
			})
			sameErr(t, err, werr, "Neighbors(%d, %v)", id, dir)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Neighbors(%d, %v) = %v, want %v", id, dir, got, want)
			}
			deg, err := g.Degree(id, dir)
			sameErr(t, err, werr, "Degree(%d, %v)", id, dir)
			if deg != len(want) {
				t.Fatalf("Degree(%d, %v) = %d, want %d", id, dir, deg, len(want))
			}
			for _, label := range []string{"", "x", "y"} {
				pre := model.NeighborID{Edge: 1 << 40, Node: 1 << 40}
				ids, handled, err := g.AppendNeighborIDs([]model.NeighborID{pre}, id, dir, label)
				sameErr(t, err, werr, "AppendNeighborIDs(%d, %v, %q)", id, dir, label)
				wantIDs := []model.NeighborID{pre}
				for _, p := range want {
					if label == "" || p.E.Label == label {
						wantIDs = append(wantIDs, model.NeighborID{Edge: p.E.ID, Node: p.N.ID})
					}
				}
				if !handled || !slices.Equal(ids, wantIDs) {
					t.Fatalf("AppendNeighborIDs(%d, %v, %q) = %v (handled %v), want %v", id, dir, label, ids, handled, wantIDs)
				}
			}
		}
	}
	for _, id := range edgeProbes {
		e, err := g.Edge(id)
		we, ok := r.edges[id]
		var werr error
		if !ok {
			werr = model.EdgeNotFound(id)
		}
		sameErr(t, err, werr, "Edge(%d)", id)
		if !reflect.DeepEqual(e, we) {
			t.Fatalf("Edge(%d) = %+v, want %+v", id, e, we)
		}
	}
}

// TestGraphMatchesMapReference drives seeded random operation sequences —
// inserts with self-loops and parallel edges, removals, property writes,
// snapshot and restore, and each of them aimed at missing ids too —
// through Graph and the map reference, and compares every read after
// every step. The probes cover id 0, -1 as an id, ids past the largest
// issued and removed ids.
func TestGraphMatchesMapReference(t *testing.T) {
	labels := []string{"x", "y"}
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, r := New(), newRef()
		var snap *Graph
		var snapRef *refGraph
		var lastEdge model.Edge
		// pickNode and pickEdge mostly name an issued id, live or removed,
		// and otherwise one that never was.
		pickNode := func() model.NodeID {
			if r.nextNode == 0 || rng.Intn(8) == 0 {
				return []model.NodeID{0, ^model.NodeID(0), r.nextNode + 1, r.nextNode + 7}[rng.Intn(4)]
			}
			return model.NodeID(rng.Intn(int(r.nextNode))) + 1
		}
		pickEdge := func() model.EdgeID {
			if r.nextEdge == 0 || rng.Intn(8) == 0 {
				return []model.EdgeID{0, ^model.EdgeID(0), r.nextEdge + 1, r.nextEdge + 7}[rng.Intn(4)]
			}
			return model.EdgeID(rng.Intn(int(r.nextEdge))) + 1
		}
		for step := 0; step < 200; step++ {
			var op string
			switch k := rng.Intn(100); {
			case k < 20:
				op = "AddNode"
				var props model.Properties
				if rng.Intn(2) == 0 {
					props = model.Props("k", step)
				}
				label := labels[rng.Intn(2)]
				id, err := g.AddNode(label, props)
				if want := r.addNode(label, props); id != want || err != nil {
					t.Fatalf("seed %d step %d: AddNode = %d, %v; want %d", seed, step, id, err, want)
				}
			case k < 55:
				op = "AddEdge"
				from, to := pickNode(), pickNode()
				switch rng.Intn(6) {
				case 0:
					to = from // self-loop
				case 1:
					from, to = lastEdge.From, lastEdge.To // parallel
				}
				label := labels[rng.Intn(2)]
				id, err := g.AddEdge(label, from, to, nil)
				want, werr := r.addEdge(label, from, to, nil)
				sameErr(t, err, werr, "seed %d step %d: AddEdge(%d, %d)", seed, step, from, to)
				if id != want {
					t.Fatalf("seed %d step %d: AddEdge = %d, want %d", seed, step, id, want)
				}
				if werr == nil {
					lastEdge = r.edges[want]
				}
			case k < 63:
				op = "RemoveNode"
				id := pickNode()
				sameErr(t, g.RemoveNode(id), r.removeNode(id), "seed %d step %d: RemoveNode(%d)", seed, step, id)
			case k < 75:
				op = "RemoveEdge"
				id := pickEdge()
				sameErr(t, g.RemoveEdge(id), r.removeEdge(id), "seed %d step %d: RemoveEdge(%d)", seed, step, id)
			case k < 84:
				op = "SetNodeProp"
				id, v := pickNode(), model.Int(int64(step))
				sameErr(t, g.SetNodeProp(id, "p", v), r.setNodeProp(id, "p", v), "seed %d step %d: SetNodeProp(%d)", seed, step, id)
			case k < 93:
				op = "SetEdgeProp"
				id, v := pickEdge(), model.Int(int64(step))
				sameErr(t, g.SetEdgeProp(id, "p", v), r.setEdgeProp(id, "p", v), "seed %d step %d: SetEdgeProp(%d)", seed, step, id)
			case k < 97 || snap == nil:
				op = "Snapshot"
				snap, snapRef = g.Snapshot(), r.clone()
			default:
				op = "RestoreFrom"
				g.RestoreFrom(snap)
				// Ids issued since the snapshot stay issued.
				snapRef.nextNode, snapRef.nextEdge = r.nextNode, r.nextEdge
				r, snap = snapRef, nil
			}
			var nodeProbes []model.NodeID
			for id := model.NodeID(0); id <= r.nextNode+2; id++ {
				nodeProbes = append(nodeProbes, id)
			}
			var edgeProbes []model.EdgeID
			for id := model.EdgeID(0); id <= r.nextEdge+2; id++ {
				edgeProbes = append(edgeProbes, id)
			}
			nodeProbes = append(nodeProbes, ^model.NodeID(0), 1<<40)
			edgeProbes = append(edgeProbes, ^model.EdgeID(0), 1<<40)
			func() {
				defer func() { // runs on t.Fatal too
					if t.Failed() {
						t.Logf("seed %d step %d after %s", seed, step, op)
					}
				}()
				compareGraph(t, g, r, nodeProbes, edgeProbes)
			}()
		}
	}
}

// FuzzGraphMatchesMapReference drives byte-decoded operation sequences
// through Graph and the map reference, as TestGraphMatchesMapReference
// does, with views among them: AcquireView, Snapshot and RestoreFrom
// interleave with adds (one node, or a run of up to 64 that crosses the
// 512-id block boundaries), removals and property writes. After every step
// the graph must read like the reference, and every view still held, the
// snapshot included, must read like the reference did when it was taken.
func FuzzGraphMatchesMapReference(f *testing.F) {
	f.Add([]byte{0, 2, 1, 1, 2, 9, 0, 8, 6, 1, 7, 4, 1, 2, 3, 8, 5, 1, 9, 0, 9, 1, 0})
	// Nine runs of 64 nodes, then writes on both sides of id 512 with views
	// and a snapshot held across them; each step ends with its probe byte.
	f.Add([]byte{1, 63, 0, 1, 63, 0, 1, 63, 0, 1, 63, 0, 1, 63, 0, 1, 63, 0, 1, 63, 0, 1, 63, 0, 1, 63, 0,
		8, 230, 2, 230, 5, 230, 6, 230, 230, 3, 226, 228, 230, 9, 230, 4, 230, 230, 5, 0, 230,
		8, 230, 6, 226, 230, 9, 1, 230, 7, 0, 230, 2, 228, 226, 230})
	// Node 1 gets three out-edges, so its list has room for a fourth; a
	// snapshot, a fourth edge, a view, a restore and another edge: the
	// view must keep the fourth.
	f.Add([]byte{0, 0, 0, 0, 2, 100, 150, 0, 2, 100, 150, 0, 2, 100, 150, 0,
		9, 0, 2, 100, 150, 0, 8, 0, 9, 1, 0, 2, 100, 150, 0})
	f.Add([]byte{0, 0, 0, 0, 2, 1, 2, 2, 2, 1, 2, 2, 3, 3, 2, 8, 4, 2, 8, 5, 2, 8, 6, 1, 8, 9, 0, 7, 2, 9, 1})
	labels := []string{"x", "y"}
	f.Fuzz(func(t *testing.T, data []byte) {
		take := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		g, r := New(), newRef()
		var snap *Graph
		var snapRef *refGraph
		type held struct {
			v   model.Graph
			ref *refGraph
		}
		var views []held
		// scale maps a byte below 255 onto 0..next+1 in proportion: an
		// issued id, 0 or the id after the largest issued.
		scale := func(k int, next uint64) uint64 { return uint64(k) * (next + 2) / 255 }
		// pickNode and pickEdge name a scaled id or, for 255, the largest
		// id there is.
		pickNode := func() model.NodeID {
			if k := take(); k < 255 {
				return model.NodeID(scale(k, uint64(r.nextNode)))
			}
			return ^model.NodeID(0)
		}
		pickEdge := func() model.EdgeID {
			if k := take(); k < 255 {
				return model.EdgeID(scale(k, uint64(r.nextEdge)))
			}
			return ^model.EdgeID(0)
		}
		// probes names every id of a small graph, and otherwise the ids
		// around at, those around the first block boundary and past the
		// largest issued.
		probes := func(r *refGraph, at int) ([]model.NodeID, []model.EdgeID) {
			var ns []model.NodeID
			var es []model.EdgeID
			for id := 0; id <= 40; id++ {
				ns, es = append(ns, model.NodeID(id)), append(es, model.EdgeID(id))
			}
			for id := range uint64(5) {
				ns = append(ns, model.NodeID(scale(at, uint64(r.nextNode))+id), blockSize-2+model.NodeID(id))
				es = append(es, model.EdgeID(scale(at, uint64(r.nextEdge))+id), blockSize-2+model.EdgeID(id))
			}
			ns = append(ns, r.nextNode, r.nextNode+1, ^model.NodeID(0))
			es = append(es, r.nextEdge, r.nextEdge+1, ^model.EdgeID(0))
			return ns, es
		}
		for step := 0; len(data) > 0 && step < 400; step++ {
			switch op := take() % 10; op {
			case 0, 1:
				n := 1
				if op == 1 {
					n = take()%64 + 1
				}
				for i := 0; i < n; i++ {
					var props model.Properties
					if i%2 == 0 {
						props = model.Props("k", step)
					}
					label := labels[i%2]
					id, err := g.AddNode(label, props)
					if want := r.addNode(label, props); id != want || err != nil {
						t.Fatalf("step %d: AddNode = %d, %v; want %d", step, id, err, want)
					}
				}
			case 2, 3:
				from, to := pickNode(), pickNode()
				label := labels[op%2]
				id, err := g.AddEdge(label, from, to, nil)
				want, werr := r.addEdge(label, from, to, nil)
				sameErr(t, err, werr, "step %d: AddEdge(%d, %d)", step, from, to)
				if id != want {
					t.Fatalf("step %d: AddEdge = %d, want %d", step, id, want)
				}
			case 4:
				id := pickNode()
				sameErr(t, g.RemoveNode(id), r.removeNode(id), "step %d: RemoveNode(%d)", step, id)
			case 5:
				id := pickEdge()
				sameErr(t, g.RemoveEdge(id), r.removeEdge(id), "step %d: RemoveEdge(%d)", step, id)
			case 6:
				id, v := pickNode(), model.Int(int64(step))
				sameErr(t, g.SetNodeProp(id, "p", v), r.setNodeProp(id, "p", v), "step %d: SetNodeProp(%d)", step, id)
			case 7:
				id, v := pickEdge(), model.Int(int64(step))
				sameErr(t, g.SetEdgeProp(id, "p", v), r.setEdgeProp(id, "p", v), "step %d: SetEdgeProp(%d)", step, id)
			case 8:
				v, release, err := g.AcquireView()
				if err != nil {
					t.Fatal(err)
				}
				release()
				views = append(views, held{v, r.clone()})
				if len(views) > 3 {
					views = views[1:]
				}
			case 9:
				if snap == nil || take()%2 == 0 {
					snap, snapRef = g.Snapshot(), r.clone()
					break
				}
				g.RestoreFrom(snap)
				// Ids issued since the snapshot stay issued.
				snapRef.nextNode, snapRef.nextEdge = r.nextNode, r.nextEdge
				r, snap = snapRef, nil
			}
			at := take()
			ns, es := probes(r, at)
			compareGraph(t, g, r, ns, es)
			for i, h := range views {
				ns, es := probes(h.ref, at)
				func() {
					defer func() {
						if t.Failed() {
							t.Logf("step %d: view %d of %d", step, i, len(views))
						}
					}()
					compareGraph(t, h.v.(readGraph), h.ref, ns, es)
				}()
			}
			if snap != nil {
				ns, es := probes(snapRef, at)
				compareGraph(t, snap, snapRef, ns, es)
			}
		}
	})
}
