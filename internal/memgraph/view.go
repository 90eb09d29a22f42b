package memgraph

import (
	"slices"

	"gdbm/internal/model"
	"gdbm/internal/query/stats"
)

// This file is the graph's read code and its read-concurrency surface. A
// view is the graph's records at one moment: the two block directories and
// the live counts. Graph reads its current view under its lock; a frozen
// view (AcquireView, Snapshot) is read with no lock at all, by the same
// methods, because no one writes its blocks again (see blocks.write). The
// planner's statistics are scanned from the live graph.

// view is a graph's records: node and edge slots in 512-id blocks, and the
// live counts that answer Order and Size. A live node's lists name only
// live edges, so their blocks exist.
type view struct {
	nodes       blocks[nodeRec]
	edges       blocks[model.Edge]
	order, size int
}

// node returns id's slot, or nil when id names no live node.
func (v *view) node(id model.NodeID) *nodeRec {
	if n := v.nodes.at(uint64(id)); n != nil && n.ID != 0 {
		return n
	}
	return nil
}

// edge returns id's slot, or nil when id names no live edge.
func (v *view) edge(id model.EdgeID) *model.Edge {
	if e := v.edges.at(uint64(id)); e != nil && e.ID != 0 {
		return e
	}
	return nil
}

// listed returns the slot in edge blocks dir of an edge a live node's list
// names. The caller loads dir once per list.
func listed(dir []*block[model.Edge], id model.EdgeID) *model.Edge {
	return &dir[id>>blockShift].recs[id&blockMask]
}

// hasEnds reports a missing endpoint of a new edge from->to.
func (v *view) hasEnds(from, to model.NodeID) error {
	if v.node(from) == nil {
		return model.NodeNotFound(from)
	}
	if v.node(to) == nil {
		return model.NodeNotFound(to)
	}
	return nil
}

// Order returns the number of nodes.
func (v *view) Order() int { return v.order }

// Size returns the number of edges.
func (v *view) Size() int { return v.size }

// Node returns the node record for id.
func (v *view) Node(id model.NodeID) (model.Node, error) {
	if n := v.node(id); n != nil {
		return n.Node, nil
	}
	return model.Node{}, model.NodeNotFound(id)
}

// Edge returns the edge record for id.
func (v *view) Edge(id model.EdgeID) (model.Edge, error) {
	if e := v.edge(id); e != nil {
		return *e, nil
	}
	return model.Edge{}, model.EdgeNotFound(id)
}

// Nodes calls fn for every node in ascending id order.
func (v *view) Nodes(fn func(model.Node) bool) error {
	for _, blk := range v.nodes.dir {
		if blk == nil {
			continue
		}
		for i := range blk.recs {
			if n := &blk.recs[i]; n.ID != 0 && !fn(n.Node) {
				return nil
			}
		}
	}
	return nil
}

// Edges calls fn for every edge in ascending id order.
func (v *view) Edges(fn func(model.Edge) bool) error {
	for _, blk := range v.edges.dir {
		if blk == nil {
			continue
		}
		for i := range blk.recs {
			if e := &blk.recs[i]; e.ID != 0 && !fn(*e) {
				return nil
			}
		}
	}
	return nil
}

// Neighbors calls fn for each edge incident to id in direction dir with
// its far-end node: out-edges before in-edges, each in ascending edge-id
// order. A self-loop is visited once per direction.
func (v *view) Neighbors(id model.NodeID, dir model.Direction, fn func(model.Edge, model.Node) bool) error {
	n := v.node(id)
	if n == nil {
		return model.NodeNotFound(id)
	}
	v.neighbors(n, dir, fn)
	return nil
}

// neighbors is Neighbors over n's slot.
func (v *view) neighbors(n *nodeRec, dir model.Direction, fn func(model.Edge, model.Node) bool) {
	edges := v.edges.dir
	if dir != model.In {
		for _, eid := range n.out {
			e := listed(edges, eid)
			if !fn(*e, v.node(e.To).Node) {
				return
			}
		}
	}
	if dir != model.Out {
		for _, eid := range n.in {
			e := listed(edges, eid)
			if !fn(*e, v.node(e.From).Node) {
				return
			}
		}
	}
}

// AppendNeighborIDs implements model.IDAdjacency: what Neighbors
// enumerates, in its order, as id pairs, with no record copied.
func (v *view) AppendNeighborIDs(buf []model.NeighborID, id model.NodeID, dir model.Direction, label string) ([]model.NeighborID, bool, error) {
	n := v.node(id)
	if n == nil {
		return buf, true, model.NodeNotFound(id)
	}
	edges := v.edges.dir
	need := 0
	if dir != model.In {
		need += len(n.out)
	}
	if dir != model.Out {
		need += len(n.in)
	}
	buf = slices.Grow(buf, need) // once, not by doubling
	if dir != model.In {
		for _, eid := range n.out {
			if e := listed(edges, eid); label == "" || e.Label == label {
				buf = append(buf, model.NeighborID{Edge: eid, Node: e.To})
			}
		}
	}
	if dir != model.Out {
		for _, eid := range n.in {
			if e := listed(edges, eid); label == "" || e.Label == label {
				buf = append(buf, model.NeighborID{Edge: eid, Node: e.From})
			}
		}
	}
	return buf, true, nil
}

// Degree returns the number of incident edges in direction dir.
func (v *view) Degree(id model.NodeID, dir model.Direction) (int, error) {
	n := v.node(id)
	if n == nil {
		return 0, model.NodeNotFound(id)
	}
	return degree(n, dir), nil
}

func degree(n *nodeRec, dir model.Direction) int {
	switch dir {
	case model.Out:
		return len(n.out)
	case model.In:
		return len(n.in)
	default:
		return len(n.out) + len(n.in)
	}
}

// frozen is a view no one writes again, and the stable epoch it renders.
type frozen struct {
	view
	epoch uint64
}

// freeze returns the current view for readers that never write it: it
// takes a fresh stamp, so the next write clones the block and directory
// it touches instead of writing the frozen ones. The caller holds mu for
// writing.
func (g *Graph) freeze() view {
	g.stamp = stamps.Add(1)
	return g.cur
}

// Epoch returns the graph's mutation epoch. Stable states are even; the
// count only moves forward.
func (g *Graph) Epoch() uint64 { return g.epoch.Current() }

// AcquireView pins an immutable point-in-time view of the graph: its
// records frozen where they are, served by the same read code as the live
// graph, as a model.Graph and model.IDAdjacency. It is O(1): while the
// epoch has not moved since the last freeze it returns that view with no
// lock taken; otherwise it freezes the current records under the write
// lock, which waits for a writer in flight and copies nothing. The view
// holds no resource but memory, so the release does nothing; it is
// idempotent, as model.ReleaseFunc requires.
func (g *Graph) AcquireView() (model.Graph, model.ReleaseFunc, error) {
	if f := g.pinned.Load(); f != nil && f.epoch == g.epoch.Current() {
		return f, release, nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	f := g.pinned.Load()
	if epoch := g.epoch.Current(); f == nil || f.epoch != epoch {
		f = &frozen{view: g.freeze(), epoch: epoch}
		g.pinned.Store(f)
	}
	return f, release, nil
}

// release is the ReleaseFunc of every view: the garbage collector reclaims
// a frozen view once no one holds it.
func release() {}

// PlanStats implements stats.Provider: the published statistics while the
// graph has drifted from them by at most a sixteenth, and otherwise a
// stats.Build over the live graph (see stats.Versioned.Get). The scan
// copies the records under the read lock, so writers wait for the copy,
// not for the statistics.
func (g *Graph) PlanStats() (*stats.Stats, error) {
	return g.stats.Get(g, g.epoch.Current)
}

var (
	_ model.Pinner      = (*Graph)(nil)
	_ stats.Provider    = (*Graph)(nil)
	_ model.Graph       = (*frozen)(nil)
	_ model.IDAdjacency = (*frozen)(nil)
)
