// Package propcore is the reusable property-graph core most engines build
// on: a mutable graph (in-memory or kv-backed) wired to an index manager, a
// constraint set, a schema and a transaction manager. Engines embed a Core
// and expose the subset of its surface their archetype supports; Hyper
// stores a hypergraph in a Core as its incidence graph.
package propcore

import (
	"fmt"
	"sync"

	"gdbm/internal/constraint"
	"gdbm/internal/index"
	"gdbm/internal/model"
	"gdbm/internal/query/plan"
	"gdbm/internal/query/stats"
	"gdbm/internal/storage/tx"
)

// Core couples a storage graph with indexing, constraints and transactions.
type Core struct {
	g    model.MutableGraph
	Idx  *index.Manager
	Cons *constraint.Set
	Sch  *model.Schema
	TM   *tx.Manager
	mu   sync.Mutex // serializes mutations for constraint-check atomicity
}

// New builds a core over the given storage graph.
func New(g model.MutableGraph) *Core {
	return &Core{
		g:    g,
		Idx:  index.NewManager(),
		Cons: constraint.NewSet(),
		Sch:  model.NewSchema(),
		TM:   tx.NewManager(nil),
	}
}

// Graph returns the underlying storage graph.
func (c *Core) Graph() model.MutableGraph { return c.g }

// Schema returns the engine schema.
func (c *Core) Schema() *model.Schema { return c.Sch }

// AcquireView implements model.Pinner by delegating to the storage graph.
// A store that cannot pin yields an error: handing out the live mutable
// graph as a frozen view would break every reader that trusts the
// engine.Concurrent contract.
func (c *Core) AcquireView() (model.Graph, model.ReleaseFunc, error) {
	p, ok := c.g.(model.Pinner)
	if !ok {
		return nil, nil, fmt.Errorf("propcore: storage graph %T cannot pin a snapshot", c.g)
	}
	return p.AcquireView()
}

// IndexStoredNodes feeds every stored node to the index manager. Indexes
// live in memory, so a disk-backed engine runs it on open, after
// registering its indexes, to cover the nodes a reopened store holds.
func (c *Core) IndexStoredNodes() error {
	return c.g.Nodes(func(n model.Node) bool {
		c.Idx.OnNodeWrite(n, "", nil)
		return true
	})
}

// --- model.Graph (reads delegate) ---

// Order implements model.Graph.
func (c *Core) Order() int { return c.g.Order() }

// Size implements model.Graph.
func (c *Core) Size() int { return c.g.Size() }

// Node implements model.Graph.
func (c *Core) Node(id model.NodeID) (model.Node, error) { return c.g.Node(id) }

// Edge implements model.Graph.
func (c *Core) Edge(id model.EdgeID) (model.Edge, error) { return c.g.Edge(id) }

// Nodes implements model.Graph.
func (c *Core) Nodes(fn func(model.Node) bool) error { return c.g.Nodes(fn) }

// Edges implements model.Graph.
func (c *Core) Edges(fn func(model.Edge) bool) error { return c.g.Edges(fn) }

// Neighbors implements model.Graph.
func (c *Core) Neighbors(id model.NodeID, dir model.Direction, fn func(model.Edge, model.Node) bool) error {
	return c.g.Neighbors(id, dir, fn)
}

// Degree implements model.Graph.
func (c *Core) Degree(id model.NodeID, dir model.Direction) (int, error) {
	return c.g.Degree(id, dir)
}

// --- mutations with constraint + index hooks ---

// AddNode implements model.MutableGraph with constraint validation and
// index maintenance.
func (c *Core) AddNode(label string, props model.Properties) (model.NodeID, error) {
	return c.addNode(c.g, label, props)
}

// addNode is AddNode with the constraints judging the node in view.
func (c *Core) addNode(view model.Graph, label string, props model.Properties) (model.NodeID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := constraint.Mutation{Kind: constraint.AddNode, Node: model.Node{Label: label, Props: props}}
	if err := c.Cons.Check(view, m); err != nil {
		return 0, err
	}
	id, err := c.g.AddNode(label, props)
	if err != nil {
		return 0, err
	}
	c.Idx.OnNodeWrite(model.Node{ID: id, Label: label, Props: props}, "", nil)
	return id, nil
}

// AddEdge implements model.MutableGraph with validation and indexing.
func (c *Core) AddEdge(label string, from, to model.NodeID, props model.Properties) (model.EdgeID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := constraint.Mutation{
		Kind: constraint.AddEdge,
		Edge: model.Edge{Label: label, From: from, To: to, Props: props},
	}
	if err := c.Cons.Check(c.g, m); err != nil {
		return 0, err
	}
	id, err := c.g.AddEdge(label, from, to, props)
	if err != nil {
		return 0, err
	}
	c.Idx.OnEdgeWrite(model.Edge{ID: id, Label: label, From: from, To: to, Props: props}, "", nil)
	return id, nil
}

// RemoveNode implements model.MutableGraph.
func (c *Core) RemoveNode(id model.NodeID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, err := c.g.Node(id)
	if err != nil {
		return err
	}
	if err := c.Cons.Check(c.g, constraint.Mutation{Kind: constraint.DelNode, Node: n}); err != nil {
		return err
	}
	// Incident edges cascade in the storage layer; drop their index
	// entries first. An iteration error must abort the removal: proceeding
	// would leave index entries for edges the cascade is about to delete.
	if err := c.g.Neighbors(id, model.Both, func(e model.Edge, _ model.Node) bool {
		c.Idx.OnEdgeDelete(e)
		return true
	}); err != nil {
		return err
	}
	if err := c.g.RemoveNode(id); err != nil {
		return err
	}
	c.Idx.OnNodeDelete(n)
	return nil
}

// RemoveEdge implements model.MutableGraph.
func (c *Core) RemoveEdge(id model.EdgeID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, err := c.g.Edge(id)
	if err != nil {
		return err
	}
	if err := c.g.RemoveEdge(id); err != nil {
		return err
	}
	c.Idx.OnEdgeDelete(e)
	return nil
}

// SetNodeProp implements model.MutableGraph.
func (c *Core) SetNodeProp(id model.NodeID, key string, v model.Value) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	old, err := c.g.Node(id)
	if err != nil {
		return err
	}
	// Snapshot the old properties: storage layers may return records that
	// share the live map, which the mutation below would alias.
	oldProps := old.Props.Clone()
	updated := old
	updated.Props = old.Props.Clone()
	if updated.Props == nil {
		updated.Props = model.Properties{}
	}
	updated.Props[key] = v
	m := constraint.Mutation{Kind: constraint.UpdateNode, Node: updated}
	if err := c.Cons.Check(c.g, m); err != nil {
		return err
	}
	if err := c.g.SetNodeProp(id, key, v); err != nil {
		return err
	}
	c.Idx.OnNodeWrite(updated, old.Label, oldProps)
	return nil
}

// SetEdgeProp implements model.MutableGraph.
func (c *Core) SetEdgeProp(id model.EdgeID, key string, v model.Value) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	old, err := c.g.Edge(id)
	if err != nil {
		return err
	}
	oldProps := old.Props.Clone()
	if err := c.g.SetEdgeProp(id, key, v); err != nil {
		return err
	}
	updated := old
	updated.Props = oldProps.Clone()
	if updated.Props == nil {
		updated.Props = model.Properties{}
	}
	updated.Props[key] = v
	c.Idx.OnEdgeWrite(updated, old.Label, oldProps)
	return nil
}

// PlanStats implements stats.Provider by delegating to the storage graph;
// engines embedding a Core expose it by promotion, which is what routes
// their query front-ends onto the cost-based planner (plan.CompileFor).
// Stores without statistics answer (nil, nil): planner falls back to naive.
func (c *Core) PlanStats() (*stats.Stats, error) {
	if sp, ok := c.g.(stats.Provider); ok {
		return sp.PlanStats()
	}
	return nil, nil
}

// AppendNeighborIDs implements model.IDAdjacency by forwarding to a storage
// graph that has it; over any other store it reports unhandled and the
// operators use Neighbors.
func (c *Core) AppendNeighborIDs(buf []model.NeighborID, id model.NodeID, dir model.Direction, label string) ([]model.NeighborID, bool, error) {
	if ia, ok := c.g.(model.IDAdjacency); ok {
		return ia.AppendNeighborIDs(buf, id, dir, label)
	}
	return buf, false, nil
}

// IndexedNodes implements plan.Source via the index manager.
func (c *Core) IndexedNodes(label, prop string, v model.Value, fn func(model.Node) bool) (bool, error) {
	var idx index.Index
	var key model.Value
	if prop != "" {
		i, ok := c.Idx.Get(index.Nodes, prop)
		if !ok {
			return false, nil
		}
		idx, key = i, v
	} else {
		i, ok := c.Idx.Get(index.Nodes, "")
		if !ok || label == "" {
			return false, nil
		}
		idx, key = i, model.Str(label)
	}
	var innerErr error
	err := idx.Lookup(key, func(id uint64) bool {
		n, err := c.g.Node(model.NodeID(id))
		if err != nil {
			return true // index lag; skip
		}
		if label != "" && n.Label != label {
			return true
		}
		return fn(n)
	})
	if err != nil {
		return false, err
	}
	return true, innerErr
}

// LoadNode implements the harness Loader.
func (c *Core) LoadNode(label string, props model.Properties) (model.NodeID, error) {
	return c.AddNode(label, props)
}

// LoadEdge implements the harness Loader.
func (c *Core) LoadEdge(label string, from, to model.NodeID, props model.Properties) (model.EdgeID, error) {
	return c.AddEdge(label, from, to, props)
}

var _ plan.Source = (*Core)(nil)
var _ model.MutableGraph = (*Core)(nil)
