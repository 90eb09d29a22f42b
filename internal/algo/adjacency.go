// Package algo implements the survey's four classes of essential graph
// queries (Section IV): adjacency queries (node/edge adjacency,
// k-neighborhood), reachability queries (fixed-length paths, regular simple
// paths, shortest paths) and summarization (aggregates and graph
// properties), plus the Pattern type of the fourth class, pattern matching,
// which plan.MatchPattern evaluates. All functions operate on the
// model.Graph read interface, so every binary-edge engine shares them.
package algo

import (
	"context"

	"gdbm/internal/model"
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
// at most k hops following dir, excluding start itself. The result is in
// BFS-discovery order.
func Neighborhood(g model.Graph, start model.NodeID, k int, dir model.Direction) ([]model.NodeID, error) {
	return NeighborhoodCtx(context.Background(), g, start, k, dir)
}

// NeighborhoodCtx is Neighborhood with cooperative cancellation: the level-
// synchronous expansion checks ctx between levels and returns ctx.Err()
// once the context is done, so server deadlines stop the walk mid-kernel.
func NeighborhoodCtx(ctx context.Context, g model.Graph, start model.NodeID, k int, dir model.Direction) ([]model.NodeID, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if _, err := g.Node(start); err != nil {
		return nil, err
	}
	visited := map[model.NodeID]bool{start: true}
	frontier := []model.NodeID{start}
	var out []model.NodeID
	for depth := 0; depth < k && len(frontier) > 0; depth++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var next []model.NodeID
		for _, id := range frontier {
			err := g.Neighbors(id, dir, func(_ model.Edge, n model.Node) bool {
				if !visited[n.ID] {
					visited[n.ID] = true
					next = append(next, n.ID)
					out = append(out, n.ID)
				}
				return true
			})
			if err != nil {
				return nil, err
			}
		}
		frontier = next
	}
	return out, nil
}

// BFS walks the graph from start in direction dir, calling visit with each
// discovered node and its depth. Traversal stops when visit returns false.
func BFS(g model.Graph, start model.NodeID, dir model.Direction, visit func(id model.NodeID, depth int) bool) error {
	return BFSCtx(context.Background(), g, start, dir, visit)
}

// BFSCtx is BFS with cooperative cancellation: the walk checks ctx at every
// level boundary and returns ctx.Err() once the context is done, so a
// query whose deadline has passed stops burning CPU mid-traversal.
func BFSCtx(ctx context.Context, g model.Graph, start model.NodeID, dir model.Direction, visit func(id model.NodeID, depth int) bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if _, err := g.Node(start); err != nil {
		return err
	}
	visited := map[model.NodeID]bool{start: true}
	type item struct {
		id    model.NodeID
		depth int
	}
	queue := []item{{start, 0}}
	depth := 0
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.depth > depth {
			depth = cur.depth
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if !visit(cur.id, cur.depth) {
			return nil
		}
		err := g.Neighbors(cur.id, dir, func(_ model.Edge, n model.Node) bool {
			if !visited[n.ID] {
				visited[n.ID] = true
				queue = append(queue, item{n.ID, cur.depth + 1})
			}
			return true
		})
		if err != nil {
			return err
		}
	}
	return nil
}
