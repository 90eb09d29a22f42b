// Package algo implements the survey's essential graph queries (Section
// IV): adjacency queries (node/edge adjacency, k-neighborhood),
// reachability queries (fixed-length paths, shortest paths) and
// summarization (aggregates and graph properties). The breadth-first
// family — BFS, Neighborhood, Reachable, ShortestPath, and through them
// Distance and Diameter — runs on plan.Walk, the walker behind
// plan.PathExpand, and reads a store's id pairs where it has them. The
// package keeps FixedLengthPaths (simple-path enumeration),
// WeightedShortestPath (Dijkstra), Adjacent and EdgesAdjacent, Degrees and
// the aggregates. Regular paths and patterns, the other two classes, run on
// plan.MatchPath and plan.MatchPattern. All functions operate on the
// model.Graph read interface, so every binary-edge engine shares them.
package algo

import (
	"context"

	"gdbm/internal/model"
	"gdbm/internal/query/plan"
)

// Adjacent reports whether a and b are neighbors: an edge exists between
// them in the given direction (from a's perspective).
func Adjacent(g model.Graph, a, b model.NodeID, dir model.Direction) (bool, error) {
	found := false
	err := g.Neighbors(a, dir, func(_ model.Edge, n model.Node) bool {
		if n.ID == b {
			found = true
			return false
		}
		return true
	})
	return found, err
}

// EdgesAdjacent reports whether two edges share an endpoint.
func EdgesAdjacent(g model.Graph, e1, e2 model.EdgeID) (bool, error) {
	a, err := g.Edge(e1)
	if err != nil {
		return false, err
	}
	b, err := g.Edge(e2)
	if err != nil {
		return false, err
	}
	return a.From == b.From || a.From == b.To || a.To == b.From || a.To == b.To, nil
}

// Neighborhood returns the k-neighborhood of start: every node reachable in
// at most k hops following dir, excluding start itself, in BFS order: by
// depth, then in the store's Neighbors order.
func Neighborhood(g model.Graph, start model.NodeID, k int, dir model.Direction) ([]model.NodeID, error) {
	return NeighborhoodCtx(context.Background(), g, start, k, dir)
}

// NeighborhoodCtx is Neighborhood under ctx, walked by plan.Walk.
func NeighborhoodCtx(ctx context.Context, g model.Graph, start model.NodeID, k int, dir model.Direction) ([]model.NodeID, error) {
	var out []model.NodeID
	err := plan.Walk(ctx, g, start, dir, k, func(id, _ model.NodeID, _ model.EdgeID, depth int) bool {
		if depth > 0 {
			out = append(out, id)
		}
		return k > 0 // Walk reads max 0 as unbounded
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// BFS walks the graph from start in direction dir, calling visit with each
// discovered node and its depth. Traversal stops when visit returns false.
func BFS(g model.Graph, start model.NodeID, dir model.Direction, visit func(id model.NodeID, depth int) bool) error {
	return BFSCtx(context.Background(), g, start, dir, visit)
}

// BFSCtx is BFS under ctx, walked by plan.Walk: it checks ctx before the
// walk and at every level boundary, so a query whose deadline has passed
// stops burning CPU mid-traversal.
func BFSCtx(ctx context.Context, g model.Graph, start model.NodeID, dir model.Direction, visit func(id model.NodeID, depth int) bool) error {
	return plan.Walk(ctx, g, start, dir, 0, func(id, _ model.NodeID, _ model.EdgeID, depth int) bool {
		return visit(id, depth)
	})
}
