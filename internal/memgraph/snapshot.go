package memgraph

// Snapshot returns a copy of the graph's state, and RestoreFrom replaces
// the state with a previously taken snapshot. Together they give the
// in-memory engines an all-or-nothing transaction primitive (the
// "transaction engine" component the survey requires of a graph database):
// take a snapshot, apply a batch, restore on failure. Snapshot freezes the
// records in O(1) (see freeze): the snapshot and the graph share every
// block until one of them writes it, and the writer clones it first. The
// property maps are shared too, since no write changes a stored map in
// place (AddNode/AddEdge store a clone and SetNodeProp/SetEdgeProp replace
// it).
func (g *Graph) Snapshot() *Graph {
	g.mu.Lock()
	defer g.mu.Unlock()
	return &Graph{cur: g.freeze(), stamp: stamps.Add(1), maxNode: g.maxNode, maxEdge: g.maxEdge}
}

// RestoreFrom replaces the receiver's state with the snapshot's. The
// snapshot must not be used afterwards. Ids issued since the snapshot stay
// issued: their slots read as vacant, and the next id continues from the
// receiver's, never reused. Wholesale replacement moves the epoch, which
// retires the view AcquireView last froze, and invalidates the planner
// statistics.
func (g *Graph) RestoreFrom(s *Graph) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.epoch.Bump()
	defer g.epoch.Bump()
	s.mu.Lock()
	defer s.mu.Unlock()
	g.cur = s.freeze()
	g.maxNode, g.maxEdge = max(g.maxNode, s.maxNode), max(g.maxEdge, s.maxEdge)
	g.stats.Invalidate(g.epoch.Current())
}
