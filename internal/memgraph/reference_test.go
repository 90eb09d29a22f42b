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

// compareGraph checks every read of g against r: counts, both iterators,
// and each probe id's record, degree and neighbourhood, errors included.
func compareGraph(t *testing.T, g *Graph, r *refGraph, nodeProbes []model.NodeID, edgeProbes []model.EdgeID) {
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
