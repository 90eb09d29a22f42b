// Package memgraph provides the in-memory ("main memory" in the survey's
// Table I) implementations of the model's graph structures: an attributed
// directed multigraph with adjacency lists, and a nested graph.
// All engines that advertise main-memory storage build on these types.
package memgraph

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"gdbm/internal/cache"
	"gdbm/internal/model"
	"gdbm/internal/query/stats"
)

// Records live in blocks of blockSize consecutive ids: block b holds ids
// [b<<blockShift, (b+1)<<blockShift) at slots 0..blockSize-1.
const (
	blockShift = 9
	blockSize  = 1 << blockShift
	blockMask  = blockSize - 1
)

// nodeRec is one node slot: the record inline beside its adjacency lists,
// each ascending by edge id. A zero ID marks an empty slot.
type nodeRec struct {
	model.Node
	out []model.EdgeID
	in  []model.EdgeID
}

// block holds the slots of blockSize consecutive ids. Only the graph
// generation named by stamp writes it in place; any other writer clones it
// first (blocks.write), so a frozen view that holds it never sees it change.
type block[T any] struct {
	stamp uint64
	recs  [blockSize]T
}

// blocks is one record kind's block directory. A nil entry, or an entry
// past its end, holds only vacant slots. The directory is copy-on-write
// like its blocks, under its own stamp.
type blocks[T any] struct {
	dir   []*block[T]
	stamp uint64
}

// at returns id's slot, or nil when no block holds it.
func (d *blocks[T]) at(id uint64) *T {
	if b := id >> blockShift; b < uint64(len(d.dir)) && d.dir[b] != nil {
		return &d.dir[b].recs[id&blockMask]
	}
	return nil
}

// write returns id's slot for a writer of generation stamp. A directory or
// block another generation made is cloned first, a block that does not
// exist yet is made, and clip, when not nil, is applied to every slot of a
// cloned block.
func (d *blocks[T]) write(id, stamp uint64, clip func(*T)) *T {
	b := id >> blockShift
	if d.stamp != stamp {
		d.dir, d.stamp = slices.Clone(d.dir), stamp
	}
	if n := uint64(len(d.dir)); b >= n {
		d.dir = append(d.dir, make([]*block[T], b+1-n)...)
	}
	blk := d.dir[b]
	switch {
	case blk == nil:
		blk = &block[T]{stamp: stamp}
		d.dir[b] = blk
	case blk.stamp != stamp:
		c := *blk
		c.stamp = stamp
		if clip != nil {
			for i := range c.recs {
				clip(&c.recs[i])
			}
		}
		blk = &c
		d.dir[b] = blk
	}
	return &blk.recs[id&blockMask]
}

// clipLists caps a cloned node slot's lists at their length, so the next
// append reallocates instead of writing into an array a frozen view
// shares. A removal copies its list for the same reason (without).
func clipLists(n *nodeRec) {
	n.out, n.in = slices.Clip(n.out), slices.Clip(n.in)
}

// stamps issues graph generations; no two are equal, so no graph writes a
// block another graph, or an earlier generation of itself, stamped.
var stamps atomic.Uint64

// Graph is an in-memory attributed directed multigraph. Records live in
// 512-id blocks indexed by id (view): ids are dense, monotone and never
// reused, so a lookup is a shift, a mask and a load, not a hash probe.
// Slot 0 and the slots of removed records hold zero values (a zero ID
// marks them empty), and live counts answer Order and Size.
//
// It is safe for concurrent use; reads take a shared lock. Writes change
// the blocks in place until a view is frozen (AcquireView, Snapshot); a
// freeze takes a fresh stamp, so the next write clones the block it
// touches and leaves the frozen one as it was. Every mutation
// double-bumps the epoch; a rejected mutation changes nothing and so does
// not: it is validated under mu before the first bump.
type Graph struct {
	mu    sync.RWMutex
	cur   view   // the records, guarded by mu
	stamp uint64 // this graph's generation: blocks carrying it are its to write
	// The largest ids issued; ids past cur's directories read as vacant.
	maxNode model.NodeID
	maxEdge model.EdgeID
	pinned  atomic.Pointer[frozen] // the view AcquireView last froze
	epoch   cache.Epoch
	stats   stats.Versioned // planner statistics, see PlanStats (view.go)
}

// New returns an empty graph.
func New() *Graph { return &Graph{stamp: stamps.Add(1)} }

// Order returns the number of nodes.
func (g *Graph) Order() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.cur.order
}

// Size returns the number of edges.
func (g *Graph) Size() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.cur.size
}

// writeNode and writeEdge return id's slot for writing; the caller holds
// mu for writing.
func (g *Graph) writeNode(id model.NodeID) *nodeRec {
	return g.cur.nodes.write(uint64(id), g.stamp, clipLists)
}

func (g *Graph) writeEdge(id model.EdgeID) *model.Edge {
	return g.cur.edges.write(uint64(id), g.stamp, nil)
}

// AddNode inserts a node and returns its identifier.
func (g *Graph) AddNode(label string, props model.Properties) (model.NodeID, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.epoch.Bump()
	defer g.epoch.Bump()
	g.maxNode++
	id := g.maxNode
	*g.writeNode(id) = nodeRec{Node: model.Node{ID: id, Label: label, Props: props.Clone()}}
	g.cur.order++
	return id, nil
}

// AddEdge inserts a directed edge and returns its identifier. Both endpoints
// must exist.
func (g *Graph) AddEdge(label string, from, to model.NodeID, props model.Properties) (model.EdgeID, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := g.cur.hasEnds(from, to); err != nil {
		return 0, err
	}
	g.epoch.Bump()
	defer g.epoch.Bump()
	g.maxEdge++
	id := g.maxEdge
	g.linkLocked(model.Edge{ID: id, Label: label, From: from, To: to, Props: props.Clone()})
	return id, nil
}

// linkLocked stores the new edge e at its id and appends it to its
// endpoints' lists at the place its id sorts to, which is their end when
// e has the largest id issued.
func (g *Graph) linkLocked(e model.Edge) {
	*g.writeEdge(e.ID) = e
	g.cur.size++
	src := g.writeNode(e.From)
	src.out = insertID(src.out, e.ID)
	dst := g.writeNode(e.To)
	dst.in = insertID(dst.in, e.ID)
}

// PutNode adds n at its own id, for a store that issues ids itself and
// keeps a Graph as a copy of its records (kvgraph's mirror). The slot must
// be vacant and not 0; the ids issued extend to n.ID.
func (g *Graph) PutNode(n model.Node) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if n.ID == 0 || g.cur.node(n.ID) != nil {
		return fmt.Errorf("memgraph: put node %d: %w", n.ID, model.ErrAlreadyExists)
	}
	g.epoch.Bump()
	defer g.epoch.Bump()
	*g.writeNode(n.ID) = nodeRec{Node: model.Node{ID: n.ID, Label: n.Label, Props: n.Props.Clone()}}
	g.cur.order++
	g.maxNode = max(g.maxNode, n.ID)
	return nil
}

// PutEdge is PutNode for edges; both endpoints must exist.
func (g *Graph) PutEdge(e model.Edge) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if e.ID == 0 || g.cur.edge(e.ID) != nil {
		return fmt.Errorf("memgraph: put edge %d: %w", e.ID, model.ErrAlreadyExists)
	}
	if err := g.cur.hasEnds(e.From, e.To); err != nil {
		return err
	}
	g.epoch.Bump()
	defer g.epoch.Bump()
	e.Props = e.Props.Clone()
	g.linkLocked(e)
	g.maxEdge = max(g.maxEdge, e.ID)
	return nil
}

// RemoveNode deletes a node and every incident edge.
func (g *Graph) RemoveNode(id model.NodeID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := g.cur.node(id)
	if n == nil {
		return model.NodeNotFound(id)
	}
	g.epoch.Bump()
	defer g.epoch.Bump()
	for _, eid := range append(slices.Clone(n.out), n.in...) {
		g.removeEdgeLocked(eid, id)
	}
	*g.writeNode(id) = nodeRec{}
	g.cur.order--
	return nil
}

// RemoveEdge deletes an edge.
func (g *Graph) RemoveEdge(id model.EdgeID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.cur.edge(id) == nil {
		return model.EdgeNotFound(id)
	}
	g.epoch.Bump()
	defer g.epoch.Bump()
	g.removeEdgeLocked(id, 0)
	return nil
}

// removeEdgeLocked deletes edge id from its record slot and from the lists
// of its endpoints, except those of gone, a node being removed whole.
func (g *Graph) removeEdgeLocked(id model.EdgeID, gone model.NodeID) {
	e := g.cur.edge(id)
	if e == nil {
		return // a self-loop, already removed through its other end
	}
	from, to := e.From, e.To
	*g.writeEdge(id) = model.Edge{}
	g.cur.size--
	if from != gone {
		src := g.writeNode(from)
		src.out = without(src.out, id)
	}
	if to != gone {
		dst := g.writeNode(to)
		dst.in = without(dst.in, id)
	}
}

// insertID adds id to the ascending list s at its place.
func insertID(s []model.EdgeID, id model.EdgeID) []model.EdgeID {
	if len(s) == 0 || s[len(s)-1] < id {
		return append(s, id)
	}
	i, _ := slices.BinarySearch(s, id)
	return slices.Insert(s, i, id)
}

// without returns s less id, keeping the rest in order. It never writes
// to s's array, which a frozen view may share: removing the last id
// reslices, any other copies.
func without(s []model.EdgeID, id model.EdgeID) []model.EdgeID {
	i := slices.Index(s, id)
	if i < 0 {
		return s
	}
	return append(s[:i:i], s[i+1:]...)
}

// Node returns the node record for id. It and Edge look the slot up
// themselves: the view's Node and Edge do not inline, and a point read is
// on every operator's path.
func (g *Graph) Node(id model.NodeID) (model.Node, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if n := g.cur.node(id); n != nil {
		return n.Node, nil
	}
	return model.Node{}, model.NodeNotFound(id)
}

// Edge returns the edge record for id.
func (g *Graph) Edge(id model.EdgeID) (model.Edge, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if e := g.cur.edge(id); e != nil {
		return *e, nil
	}
	return model.Edge{}, model.EdgeNotFound(id)
}

// SetNodeProp sets one property on a node. The property map is replaced,
// not mutated: readers hold record copies that share the old map beyond the
// read lock, so an in-place write would race with them.
func (g *Graph) SetNodeProp(id model.NodeID, key string, v model.Value) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.cur.node(id) == nil {
		return model.NodeNotFound(id)
	}
	g.epoch.Bump()
	defer g.epoch.Bump()
	n := g.writeNode(id)
	n.Props = withProp(n.Props, key, v)
	return nil
}

// SetEdgeProp sets one property on an edge, with the same copy-on-write
// discipline as SetNodeProp.
func (g *Graph) SetEdgeProp(id model.EdgeID, key string, v model.Value) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.cur.edge(id) == nil {
		return model.EdgeNotFound(id)
	}
	g.epoch.Bump()
	defer g.epoch.Bump()
	e := g.writeEdge(id)
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

// Nodes iterates all nodes in ascending id order. The records are copied
// under the read lock, so fn may write to the graph.
func (g *Graph) Nodes(fn func(model.Node) bool) error {
	g.mu.RLock()
	snapshot := make([]model.Node, 0, g.cur.order)
	err := g.cur.Nodes(func(n model.Node) bool {
		snapshot = append(snapshot, n)
		return true
	})
	g.mu.RUnlock()
	for _, n := range snapshot {
		if !fn(n) {
			break
		}
	}
	return err
}

// Edges iterates all edges in ascending id order, as Nodes does.
func (g *Graph) Edges(fn func(model.Edge) bool) error {
	g.mu.RLock()
	snapshot := make([]model.Edge, 0, g.cur.size)
	err := g.cur.Edges(func(e model.Edge) bool {
		snapshot = append(snapshot, e)
		return true
	})
	g.mu.RUnlock()
	for _, e := range snapshot {
		if !fn(e) {
			break
		}
	}
	return err
}

// Neighbors iterates edges incident to id in direction dir together with the
// far-end node: out-edges before in-edges, each in ascending edge-id order.
// The pairs are copied under the read lock, so fn may write to the graph.
func (g *Graph) Neighbors(id model.NodeID, dir model.Direction, fn func(model.Edge, model.Node) bool) error {
	type pair struct {
		e model.Edge
		n model.Node
	}
	g.mu.RLock()
	n := g.cur.node(id)
	if n == nil {
		g.mu.RUnlock()
		return model.NodeNotFound(id)
	}
	// Sized before the loop: growing by doubling would copy records while
	// writers wait on the lock.
	pairs := make([]pair, 0, degree(n, dir))
	g.cur.neighbors(n, dir, func(e model.Edge, far model.Node) bool {
		pairs = append(pairs, pair{e, far})
		return true
	})
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
	return g.cur.AppendNeighborIDs(buf, id, dir, label)
}

// Degree returns the number of incident edges in direction dir.
func (g *Graph) Degree(id model.NodeID, dir model.Direction) (int, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.cur.Degree(id, dir)
}

var _ model.MutableGraph = (*Graph)(nil)
var _ model.IDAdjacency = (*Graph)(nil)
