// Package memgraph provides the in-memory ("main memory" in the survey's
// Table I) implementations of the model's graph structures: an attributed
// directed multigraph with adjacency lists, and a nested graph.
// All engines that advertise main-memory storage build on these types.
package memgraph

import (
	"slices"
	"sync"

	"gdbm/internal/adj"
	"gdbm/internal/cache"
	"gdbm/internal/model"
	"gdbm/internal/query/stats"
)

// nodeRec is one node slot: the record inline beside its adjacency lists,
// each ascending by edge id. A zero ID marks an empty slot.
type nodeRec struct {
	model.Node
	out []model.EdgeID
	in  []model.EdgeID
}

// Graph is an in-memory attributed directed multigraph. Records live in
// slices indexed by id: ids are dense, monotone and never reused, so a
// lookup is a bounds check, not a hash probe. Slot 0 and the slots of
// removed records hold zero values (a zero ID marks them empty), and live
// counts answer Order and Size.
//
// It is safe for concurrent use; reads take a shared lock. Every mutation
// double-bumps the epoch and marks the touched records in ver, which
// publishes the O(1) copy-on-write views of AcquireView (see view.go). A
// rejected mutation changes nothing and so does neither: it is validated
// under mu before the first bump.
type Graph struct {
	mu    sync.RWMutex
	nodes []nodeRec    // nodes[id]; len(nodes)-1 is the largest id issued
	edges []model.Edge // edges[id]; likewise
	order int          // live nodes
	size  int          // live edges
	epoch cache.Epoch
	ver   adj.Versioned
	stats stats.Versioned // planner statistics, see PlanStats (view.go)
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{nodes: make([]nodeRec, 1), edges: make([]model.Edge, 1)}
}

// node returns id's slot, or nil when id names no live node. The pointer
// is valid only until the next append to g.nodes.
func (g *Graph) node(id model.NodeID) *nodeRec {
	if id >= model.NodeID(len(g.nodes)) || g.nodes[id].ID == 0 {
		return nil
	}
	return &g.nodes[id]
}

// edge returns id's slot, or nil when id names no live edge.
func (g *Graph) edge(id model.EdgeID) *model.Edge {
	if id >= model.EdgeID(len(g.edges)) || g.edges[id].ID == 0 {
		return nil
	}
	return &g.edges[id]
}

// Order returns the number of nodes.
func (g *Graph) Order() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.order
}

// Size returns the number of edges.
func (g *Graph) Size() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.size
}

// AddNode inserts a node and returns its identifier.
func (g *Graph) AddNode(label string, props model.Properties) (model.NodeID, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.epoch.Bump()
	defer g.epoch.Bump()
	id := model.NodeID(len(g.nodes))
	g.ver.MarkNode(id)
	g.nodes = append(g.nodes, nodeRec{Node: model.Node{ID: id, Label: label, Props: props.Clone()}})
	g.order++
	return id, nil
}

// AddEdge inserts a directed edge and returns its identifier. Both endpoints
// must exist.
func (g *Graph) AddEdge(label string, from, to model.NodeID, props model.Properties) (model.EdgeID, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	src, dst := g.node(from), g.node(to)
	if src == nil {
		return 0, model.NodeNotFound(from)
	}
	if dst == nil {
		return 0, model.NodeNotFound(to)
	}
	g.epoch.Bump()
	defer g.epoch.Bump()
	id := model.EdgeID(len(g.edges))
	g.ver.MarkLink(id, from, to)
	g.edges = append(g.edges, model.Edge{ID: id, Label: label, From: from, To: to, Props: props.Clone()})
	g.size++
	src.out = append(src.out, id)
	dst.in = append(dst.in, id)
	return id, nil
}

// RemoveNode deletes a node and every incident edge.
func (g *Graph) RemoveNode(id model.NodeID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := g.node(id)
	if n == nil {
		return model.NodeNotFound(id)
	}
	g.epoch.Bump()
	defer g.epoch.Bump()
	for _, eid := range append(append([]model.EdgeID(nil), n.out...), n.in...) {
		g.removeEdgeLocked(eid)
	}
	g.ver.MarkNode(id)
	*n = nodeRec{}
	g.order--
	return nil
}

// RemoveEdge deletes an edge.
func (g *Graph) RemoveEdge(id model.EdgeID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.edge(id) == nil {
		return model.EdgeNotFound(id)
	}
	g.epoch.Bump()
	defer g.epoch.Bump()
	g.removeEdgeLocked(id)
	return nil
}

func (g *Graph) removeEdgeLocked(id model.EdgeID) {
	e := g.edge(id)
	if e == nil {
		return // a self-loop, already removed through its other end
	}
	g.ver.MarkLink(id, e.From, e.To)
	src, dst := &g.nodes[e.From], &g.nodes[e.To]
	src.out = removeID(src.out, id)
	dst.in = removeID(dst.in, id)
	*e = model.Edge{}
	g.size--
}

// removeID deletes id from s in place, keeping the rest in order: a list
// stays ascending, as ids are appended in issue order.
func removeID(s []model.EdgeID, id model.EdgeID) []model.EdgeID {
	if i := slices.Index(s, id); i >= 0 {
		return slices.Delete(s, i, i+1)
	}
	return s
}

// Node returns the node record for id.
func (g *Graph) Node(id model.NodeID) (model.Node, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n := g.node(id)
	if n == nil {
		return model.Node{}, model.NodeNotFound(id)
	}
	return n.Node, nil
}

// Edge returns the edge record for id.
func (g *Graph) Edge(id model.EdgeID) (model.Edge, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	e := g.edge(id)
	if e == nil {
		return model.Edge{}, model.EdgeNotFound(id)
	}
	return *e, nil
}

// SetNodeProp sets one property on a node. The property map is replaced,
// not mutated: readers hold record copies that share the old map beyond the
// read lock, so an in-place write would race with them.
func (g *Graph) SetNodeProp(id model.NodeID, key string, v model.Value) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := g.node(id)
	if n == nil {
		return model.NodeNotFound(id)
	}
	g.epoch.Bump()
	defer g.epoch.Bump()
	g.ver.MarkNode(id)
	n.Props = withProp(n.Props, key, v)
	return nil
}

// SetEdgeProp sets one property on an edge, with the same copy-on-write
// discipline as SetNodeProp.
func (g *Graph) SetEdgeProp(id model.EdgeID, key string, v model.Value) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	e := g.edge(id)
	if e == nil {
		return model.EdgeNotFound(id)
	}
	g.epoch.Bump()
	defer g.epoch.Bump()
	g.ver.MarkEdge(id)
	e.Props = withProp(e.Props, key, v)
	return nil
}

// withProp returns a copy of props with key set to v.
func withProp(props model.Properties, key string, v model.Value) model.Properties {
	props = props.Clone()
	if props == nil {
		props = model.Properties{}
	}
	props[key] = v
	return props
}

// Nodes iterates all nodes in ascending id order.
func (g *Graph) Nodes(fn func(model.Node) bool) error {
	g.mu.RLock()
	snapshot := make([]model.Node, 0, g.order)
	for i := range g.nodes {
		if n := &g.nodes[i]; n.ID != 0 {
			snapshot = append(snapshot, n.Node)
		}
	}
	g.mu.RUnlock()
	for _, n := range snapshot {
		if !fn(n) {
			return nil
		}
	}
	return nil
}

// Edges iterates all edges in ascending id order.
func (g *Graph) Edges(fn func(model.Edge) bool) error {
	g.mu.RLock()
	snapshot := make([]model.Edge, 0, g.size)
	for _, e := range g.edges {
		if e.ID != 0 {
			snapshot = append(snapshot, e)
		}
	}
	g.mu.RUnlock()
	for _, e := range snapshot {
		if !fn(e) {
			return nil
		}
	}
	return nil
}

// Neighbors iterates edges incident to id in direction dir together with the
// far-end node: out-edges before in-edges, each in ascending edge-id order.
func (g *Graph) Neighbors(id model.NodeID, dir model.Direction, fn func(model.Edge, model.Node) bool) error {
	g.mu.RLock()
	n := g.node(id)
	if n == nil {
		g.mu.RUnlock()
		return model.NodeNotFound(id)
	}
	type pair struct {
		e model.Edge
		n model.Node
	}
	// Sized before the loop: growing by doubling would copy records while
	// writers wait on the lock.
	size := 0
	if dir != model.In {
		size += len(n.out)
	}
	if dir != model.Out {
		size += len(n.in)
	}
	pairs := make([]pair, 0, size)
	if dir != model.In {
		for _, eid := range n.out {
			e := &g.edges[eid]
			pairs = append(pairs, pair{*e, g.nodes[e.To].Node})
		}
	}
	if dir != model.Out {
		for _, eid := range n.in {
			e := &g.edges[eid]
			pairs = append(pairs, pair{*e, g.nodes[e.From].Node})
		}
	}
	g.mu.RUnlock()
	for _, p := range pairs {
		if !fn(p.e, p.n) {
			return nil
		}
	}
	return nil
}

// AppendNeighborIDs implements model.IDAdjacency from the live adjacency
// lists under the read lock: what Neighbors enumerates, in its order, as id
// pairs — nothing is copied but the ids, and the records an operator still
// wants are read from the same state.
func (g *Graph) AppendNeighborIDs(buf []model.NeighborID, id model.NodeID, dir model.Direction, label string) ([]model.NeighborID, bool, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n := g.node(id)
	if n == nil {
		return buf, true, model.NodeNotFound(id)
	}
	if dir != model.In {
		buf = slices.Grow(buf, len(n.out)) // once, not by doubling
		for _, eid := range n.out {
			if e := &g.edges[eid]; label == "" || e.Label == label {
				buf = append(buf, model.NeighborID{Edge: eid, Node: e.To})
			}
		}
	}
	if dir != model.Out {
		buf = slices.Grow(buf, len(n.in))
		for _, eid := range n.in {
			if e := &g.edges[eid]; label == "" || e.Label == label {
				buf = append(buf, model.NeighborID{Edge: eid, Node: e.From})
			}
		}
	}
	return buf, true, nil
}

// Degree returns the number of incident edges in direction dir.
func (g *Graph) Degree(id model.NodeID, dir model.Direction) (int, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n := g.node(id)
	if n == nil {
		return 0, model.NodeNotFound(id)
	}
	switch dir {
	case model.Out:
		return len(n.out), nil
	case model.In:
		return len(n.in), nil
	default:
		return len(n.out) + len(n.in), nil
	}
}

var _ model.MutableGraph = (*Graph)(nil)
var _ model.IDAdjacency = (*Graph)(nil)
