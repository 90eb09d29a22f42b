package algo

import (
	"cmp"
	"container/heap"
	"context"
	"fmt"
	"math"

	"gdbm/internal/model"
	"gdbm/internal/query/plan"
)

// Path is a node sequence with the edges that join consecutive nodes;
// len(Edges) == len(Nodes)-1.
type Path struct {
	Nodes []model.NodeID
	Edges []model.EdgeID
}

// Len returns the path length in edges.
func (p Path) Len() int { return len(p.Edges) }

// Reachable reports whether to can be reached from from following dir.
func Reachable(g model.Graph, from, to model.NodeID, dir model.Direction) (bool, error) {
	return ReachableCtx(context.Background(), g, from, to, dir)
}

// ReachableCtx is Reachable under ctx, walked by plan.Walk.
func ReachableCtx(ctx context.Context, g model.Graph, from, to model.NodeID, dir model.Direction) (bool, error) {
	found := false
	err := plan.Walk(ctx, g, from, dir, 0, func(id, _ model.NodeID, _ model.EdgeID, _ int) bool {
		found = id == to
		return !found
	})
	return found, err
}

// FixedLengthPaths returns every simple path from from to to with exactly
// length edges, up to limit paths (0 = unlimited). Paths are simple: no node
// repeats.
func FixedLengthPaths(g model.Graph, from, to model.NodeID, length int, dir model.Direction, limit int) ([]Path, error) {
	return FixedLengthPathsCtx(context.Background(), g, from, to, length, dir, limit)
}

// FixedLengthPathsCtx is FixedLengthPaths with cooperative cancellation:
// the backtracking enumeration checks ctx at every expansion step and
// returns ctx.Err() once the context is done.
func FixedLengthPathsCtx(ctx context.Context, g model.Graph, from, to model.NodeID, length int, dir model.Direction, limit int) ([]Path, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if _, err := g.Node(from); err != nil {
		return nil, err
	}
	if _, err := g.Node(to); err != nil {
		return nil, err
	}
	var out []Path
	onPath := map[model.NodeID]bool{from: true}
	cur := Path{Nodes: []model.NodeID{from}}
	var dfs func(at model.NodeID, remaining int) error
	dfs = func(at model.NodeID, remaining int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if limit > 0 && len(out) >= limit {
			return nil
		}
		if remaining == 0 {
			if at == to {
				cp := Path{
					Nodes: append([]model.NodeID(nil), cur.Nodes...),
					Edges: append([]model.EdgeID(nil), cur.Edges...),
				}
				out = append(out, cp)
			}
			return nil
		}
		var steps []struct {
			e model.Edge
			n model.Node
		}
		err := g.Neighbors(at, dir, func(e model.Edge, n model.Node) bool {
			steps = append(steps, struct {
				e model.Edge
				n model.Node
			}{e, n})
			return true
		})
		if err != nil {
			return err
		}
		for _, s := range steps {
			if onPath[s.n.ID] {
				continue
			}
			onPath[s.n.ID] = true
			cur.Nodes = append(cur.Nodes, s.n.ID)
			cur.Edges = append(cur.Edges, s.e.ID)
			if err := dfs(s.n.ID, remaining-1); err != nil {
				return err
			}
			cur.Nodes = cur.Nodes[:len(cur.Nodes)-1]
			cur.Edges = cur.Edges[:len(cur.Edges)-1]
			delete(onPath, s.n.ID)
		}
		return nil
	}
	if err := dfs(from, length); err != nil {
		return nil, err
	}
	return out, nil
}

// ShortestPath returns a minimum-hop path from from to to, or ErrNotFound if
// none exists.
func ShortestPath(g model.Graph, from, to model.NodeID, dir model.Direction) (Path, error) {
	return ShortestPathCtx(context.Background(), g, from, to, dir)
}

// ShortestPathCtx is ShortestPath under ctx, walked by plan.Walk: the
// first path the walk finds to to is a shortest one.
func ShortestPathCtx(ctx context.Context, g model.Graph, from, to model.NodeID, dir model.Direction) (Path, error) {
	parent := map[model.NodeID]parentHop{}
	var toErr error
	err := plan.Walk(ctx, g, from, dir, 0, func(id, prev model.NodeID, via model.EdgeID, depth int) bool {
		if depth == 0 { // the walk has read from's record; to's comes next
			if _, toErr = g.Node(to); toErr != nil {
				return false
			}
		}
		parent[id] = parentHop{prev, via}
		return id != to
	})
	if err = cmp.Or(err, toErr); err != nil {
		return Path{}, err
	}
	if _, ok := parent[to]; !ok {
		return Path{}, fmt.Errorf("no path from %d to %d: %w", from, to, model.ErrNotFound)
	}
	return assemble(parent, from, to), nil
}

// parentHop records how a node was first reached during a search.
type parentHop struct {
	prev model.NodeID
	edge model.EdgeID
}

func assemble(parent map[model.NodeID]parentHop, from, to model.NodeID) Path {
	var revNodes []model.NodeID
	var revEdges []model.EdgeID
	for at := to; ; {
		revNodes = append(revNodes, at)
		if at == from {
			break
		}
		h := parent[at]
		revEdges = append(revEdges, h.edge)
		at = h.prev
	}
	p := Path{}
	for i := len(revNodes) - 1; i >= 0; i-- {
		p.Nodes = append(p.Nodes, revNodes[i])
	}
	for i := len(revEdges) - 1; i >= 0; i-- {
		p.Edges = append(p.Edges, revEdges[i])
	}
	return p
}

// WeightedShortestPath runs Dijkstra using the named edge property as a
// non-negative weight (missing property = weight 1). It returns the path and
// its total weight.
func WeightedShortestPath(g model.Graph, from, to model.NodeID, weightProp string, dir model.Direction) (Path, float64, error) {
	if _, err := g.Node(from); err != nil {
		return Path{}, 0, err
	}
	if _, err := g.Node(to); err != nil {
		return Path{}, 0, err
	}
	dist := map[model.NodeID]float64{from: 0}
	parent := map[model.NodeID]parentHop{from: {}}
	done := map[model.NodeID]bool{}
	pq := &nodeHeap{{id: from, dist: 0}}
	for pq.Len() > 0 {
		cur := heap.Pop(pq).(nodeDist)
		if done[cur.id] {
			continue
		}
		done[cur.id] = true
		if cur.id == to {
			return assemble(parent, from, to), cur.dist, nil
		}
		err := g.Neighbors(cur.id, dir, func(e model.Edge, n model.Node) bool {
			w := 1.0
			if f, ok := e.Props.Get(weightProp).AsFloat(); ok {
				w = f
			}
			if w < 0 {
				w = 0
			}
			nd := cur.dist + w
			if old, seen := dist[n.ID]; !seen || nd < old {
				dist[n.ID] = nd
				parent[n.ID] = parentHop{cur.id, e.ID}
				heap.Push(pq, nodeDist{id: n.ID, dist: nd})
			}
			return true
		})
		if err != nil {
			return Path{}, 0, err
		}
	}
	return Path{}, math.Inf(1), fmt.Errorf("no path from %d to %d: %w", from, to, model.ErrNotFound)
}

type nodeDist struct {
	id   model.NodeID
	dist float64
}

type nodeHeap []nodeDist

func (h nodeHeap) Len() int           { return len(h) }
func (h nodeHeap) Less(i, j int) bool { return h[i].dist < h[j].dist }
func (h nodeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)        { *h = append(*h, x.(nodeDist)) }
func (h *nodeHeap) Pop() any          { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }
