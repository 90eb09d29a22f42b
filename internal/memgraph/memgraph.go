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

type adjacency struct {
	out []model.EdgeID
	in  []model.EdgeID
}

// Graph is an in-memory attributed directed multigraph. It is safe for
// concurrent use; reads take a shared lock. Every mutation double-bumps
// the epoch and marks the touched records in ver, which publishes the
// O(1) copy-on-write views of AcquireView (see view.go). A rejected
// mutation changes nothing and so does neither: it is validated under mu
// before the first bump.
type Graph struct {
	mu       sync.RWMutex
	nodes    map[model.NodeID]*model.Node
	edges    map[model.EdgeID]*model.Edge
	adj      map[model.NodeID]*adjacency
	nextNode model.NodeID
	nextEdge model.EdgeID
	epoch    cache.Epoch
	ver      adj.Versioned
	stats    stats.Versioned // planner statistics, epoch-keyed (planstats.go)
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		nodes: make(map[model.NodeID]*model.Node),
		edges: make(map[model.EdgeID]*model.Edge),
		adj:   make(map[model.NodeID]*adjacency),
	}
}

// Order returns the number of nodes.
func (g *Graph) Order() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.nodes)
}

// Size returns the number of edges.
func (g *Graph) Size() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.edges)
}

// AddNode inserts a node and returns its identifier.
func (g *Graph) AddNode(label string, props model.Properties) (model.NodeID, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.epoch.Bump()
	defer g.epoch.Bump()
	g.nextNode++
	g.ver.MarkNode(g.nextNode)
	id := g.nextNode
	g.nodes[id] = &model.Node{ID: id, Label: label, Props: props.Clone()}
	g.adj[id] = &adjacency{}
	return id, nil
}

// AddEdge inserts a directed edge and returns its identifier. Both endpoints
// must exist.
func (g *Graph) AddEdge(label string, from, to model.NodeID, props model.Properties) (model.EdgeID, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.nodes[from]; !ok {
		return 0, model.NodeNotFound(from)
	}
	if _, ok := g.nodes[to]; !ok {
		return 0, model.NodeNotFound(to)
	}
	g.epoch.Bump()
	defer g.epoch.Bump()
	g.nextEdge++
	id := g.nextEdge
	g.ver.MarkLink(id, from, to)
	g.edges[id] = &model.Edge{ID: id, Label: label, From: from, To: to, Props: props.Clone()}
	g.adj[from].out = append(g.adj[from].out, id)
	g.adj[to].in = append(g.adj[to].in, id)
	return id, nil
}

// RemoveNode deletes a node and every incident edge.
func (g *Graph) RemoveNode(id model.NodeID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	a, ok := g.adj[id]
	if !ok {
		return model.NodeNotFound(id)
	}
	g.epoch.Bump()
	defer g.epoch.Bump()
	for _, eid := range append(append([]model.EdgeID(nil), a.out...), a.in...) {
		g.removeEdgeLocked(eid)
	}
	g.ver.MarkNode(id)
	delete(g.nodes, id)
	delete(g.adj, id)
	return nil
}

// RemoveEdge deletes an edge.
func (g *Graph) RemoveEdge(id model.EdgeID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.edges[id]; !ok {
		return model.EdgeNotFound(id)
	}
	g.epoch.Bump()
	defer g.epoch.Bump()
	g.removeEdgeLocked(id)
	return nil
}

func (g *Graph) removeEdgeLocked(id model.EdgeID) {
	e, ok := g.edges[id]
	if !ok {
		return
	}
	g.ver.MarkLink(id, e.From, e.To)
	if a := g.adj[e.From]; a != nil {
		a.out = removeID(a.out, id)
	}
	if a := g.adj[e.To]; a != nil {
		a.in = removeID(a.in, id)
	}
	delete(g.edges, id)
}

func removeID(s []model.EdgeID, id model.EdgeID) []model.EdgeID {
	for i, v := range s {
		if v == id {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}

// Node returns the node record for id.
func (g *Graph) Node(id model.NodeID) (model.Node, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n, ok := g.nodes[id]
	if !ok {
		return model.Node{}, model.NodeNotFound(id)
	}
	return *n, nil
}

// Edge returns the edge record for id.
func (g *Graph) Edge(id model.EdgeID) (model.Edge, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	e, ok := g.edges[id]
	if !ok {
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
	n, ok := g.nodes[id]
	if !ok {
		return model.NodeNotFound(id)
	}
	g.epoch.Bump()
	defer g.epoch.Bump()
	g.ver.MarkNode(id)
	props := n.Props.Clone()
	if props == nil {
		props = model.Properties{}
	}
	props[key] = v
	n.Props = props
	return nil
}

// SetEdgeProp sets one property on an edge, with the same copy-on-write
// discipline as SetNodeProp.
func (g *Graph) SetEdgeProp(id model.EdgeID, key string, v model.Value) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	e, ok := g.edges[id]
	if !ok {
		return model.EdgeNotFound(id)
	}
	g.epoch.Bump()
	defer g.epoch.Bump()
	g.ver.MarkEdge(id)
	props := e.Props.Clone()
	if props == nil {
		props = model.Properties{}
	}
	props[key] = v
	e.Props = props
	return nil
}

// Nodes iterates all nodes. Iteration order is unspecified.
func (g *Graph) Nodes(fn func(model.Node) bool) error {
	g.mu.RLock()
	snapshot := make([]model.Node, 0, len(g.nodes))
	for _, n := range g.nodes {
		snapshot = append(snapshot, *n)
	}
	g.mu.RUnlock()
	for _, n := range snapshot {
		if !fn(n) {
			return nil
		}
	}
	return nil
}

// Edges iterates all edges. Iteration order is unspecified.
func (g *Graph) Edges(fn func(model.Edge) bool) error {
	g.mu.RLock()
	snapshot := make([]model.Edge, 0, len(g.edges))
	for _, e := range g.edges {
		snapshot = append(snapshot, *e)
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
// far-end node.
func (g *Graph) Neighbors(id model.NodeID, dir model.Direction, fn func(model.Edge, model.Node) bool) error {
	g.mu.RLock()
	a, ok := g.adj[id]
	if !ok {
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
		size += len(a.out)
	}
	if dir != model.Out {
		size += len(a.in)
	}
	pairs := make([]pair, 0, size)
	if dir != model.In {
		for _, eid := range a.out {
			e := g.edges[eid]
			pairs = append(pairs, pair{*e, *g.nodes[e.To]})
		}
	}
	if dir != model.Out {
		for _, eid := range a.in {
			e := g.edges[eid]
			pairs = append(pairs, pair{*e, *g.nodes[e.From]})
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
	a, ok := g.adj[id]
	if !ok {
		return buf, true, model.NodeNotFound(id)
	}
	if dir != model.In {
		buf = slices.Grow(buf, len(a.out)) // once, not by doubling
		for _, eid := range a.out {
			if e := g.edges[eid]; label == "" || e.Label == label {
				buf = append(buf, model.NeighborID{Edge: eid, Node: e.To})
			}
		}
	}
	if dir != model.Out {
		buf = slices.Grow(buf, len(a.in))
		for _, eid := range a.in {
			if e := g.edges[eid]; label == "" || e.Label == label {
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
	a, ok := g.adj[id]
	if !ok {
		return 0, model.NodeNotFound(id)
	}
	switch dir {
	case model.Out:
		return len(a.out), nil
	case model.In:
		return len(a.in), nil
	default:
		return len(a.out) + len(a.in), nil
	}
}

var _ model.MutableGraph = (*Graph)(nil)
var _ model.IDAdjacency = (*Graph)(nil)
