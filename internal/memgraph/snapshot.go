package memgraph

import "slices"

// Snapshot returns a copy of the graph's state, and RestoreFrom replaces
// the state with a previously taken snapshot. Together they give the
// in-memory engines an all-or-nothing transaction primitive (the
// "transaction engine" component the survey requires of a graph database):
// take a snapshot, apply a batch, restore on failure. The record slices
// and adjacency lists are copied, since writes change them in place; the
// property maps are shared, since no write changes a stored map in place
// (AddNode/AddEdge store a clone and SetNodeProp/SetEdgeProp replace it).
func (g *Graph) Snapshot() *Graph {
	g.mu.RLock()
	defer g.mu.RUnlock()
	s := &Graph{
		nodes: slices.Clone(g.nodes),
		edges: slices.Clone(g.edges),
		order: g.order,
		size:  g.size,
	}
	for i := range s.nodes {
		n := &s.nodes[i]
		n.out, n.in = slices.Clone(n.out), slices.Clone(n.in)
	}
	return s
}

// RestoreFrom replaces the receiver's state with the snapshot's. The
// snapshot must not be used afterwards. Ids issued since the snapshot stay
// issued: their slots come back vacant, so the next id continues from the
// receiver's, never reused. Wholesale replacement invalidates every
// copy-on-write view block and the planner statistics, and moves the epoch.
func (g *Graph) RestoreFrom(s *Graph) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.epoch.Bump()
	defer g.epoch.Bump()
	s.mu.Lock()
	defer s.mu.Unlock()
	g.nodes, g.edges = pad(s.nodes, len(g.nodes)), pad(s.edges, len(g.edges))
	g.order, g.size = s.order, s.size
	g.ver.MarkAll()
	g.stats.Invalidate(g.epoch.Current())
}

// pad extends s with zero (vacant) slots to length n.
func pad[T any](s []T, n int) []T {
	return append(s, make([]T, max(n-len(s), 0))...)
}
