// Package algotest provides shared test helpers for the algorithm layer:
// a random multigraph generator and fault-injecting graph wrappers for
// error-propagation tests. It lives outside the _test files so the algorithm and engine
// tests can share them.
package algotest

import (
	"errors"
	"math/rand"
	"sync/atomic"

	"gdbm/internal/memgraph"
	"gdbm/internal/model"
)

// RandomGraph builds a labeled, attributed, possibly cyclic multigraph:
// n nodes with labels from {P, Q} and an integer property "w", m edges
// with labels from {a, b, c}. Self-loops and parallel edges may occur.
func RandomGraph(rng *rand.Rand, n, m int) (*memgraph.Graph, []model.NodeID) {
	g := memgraph.New()
	ids := make([]model.NodeID, n)
	nlabels := []string{"P", "Q"}
	for i := range ids {
		ids[i], _ = g.AddNode(nlabels[rng.Intn(len(nlabels))],
			model.Properties{"w": model.Int(int64(rng.Intn(100)))})
	}
	elabels := []string{"a", "b", "c"}
	for i := 0; i < m; i++ {
		u := ids[rng.Intn(n)]
		v := ids[rng.Intn(n)]
		g.AddEdge(elabels[rng.Intn(len(elabels))], u, v, nil)
	}
	return g, ids
}

// ErrInjected is the sentinel failure returned by FlakyGraph once its call
// budget runs out.
var ErrInjected = errors.New("algotest: injected failure")

// FlakyGraph wraps a Graph and makes Nodes, Edges, Neighbors and Degree
// fail with ErrInjected after budget successful calls (budget 0 fails the
// first call). The countdown is atomic, so concurrent readers can share
// one wrapper.
type FlakyGraph struct {
	model.Graph
	budget int64
}

// NewFlaky wraps g with a failure budget.
func NewFlaky(g model.Graph, budget int) *FlakyGraph {
	return &FlakyGraph{Graph: g, budget: int64(budget)}
}

func (f *FlakyGraph) tick() error {
	if atomic.AddInt64(&f.budget, -1) < 0 {
		return ErrInjected
	}
	return nil
}

// Nodes implements model.Graph, consuming one budget unit.
func (f *FlakyGraph) Nodes(fn func(model.Node) bool) error {
	if err := f.tick(); err != nil {
		return err
	}
	return f.Graph.Nodes(fn)
}

// Edges implements model.Graph, consuming one budget unit.
func (f *FlakyGraph) Edges(fn func(model.Edge) bool) error {
	if err := f.tick(); err != nil {
		return err
	}
	return f.Graph.Edges(fn)
}

// Neighbors implements model.Graph, consuming one budget unit.
func (f *FlakyGraph) Neighbors(id model.NodeID, dir model.Direction, fn func(model.Edge, model.Node) bool) error {
	if err := f.tick(); err != nil {
		return err
	}
	return f.Graph.Neighbors(id, dir, fn)
}

// Degree implements model.Graph, consuming one budget unit.
func (f *FlakyGraph) Degree(id model.NodeID, dir model.Direction) (int, error) {
	if err := f.tick(); err != nil {
		return 0, err
	}
	return f.Graph.Degree(id, dir)
}

// FlakyMutable wraps a MutableGraph the way FlakyGraph wraps a Graph: the
// read methods (Nodes, Edges, Neighbors, Degree) consume the shared budget
// and fail with ErrInjected once it runs out, while mutations pass through
// untouched. Engine-layer tests use it to drive a mutation path to a
// precise read failure — e.g. the incident-edge scan inside a node removal.
type FlakyMutable struct {
	*FlakyGraph
	m model.MutableGraph
}

// NewFlakyMutable wraps g with a read-failure budget.
func NewFlakyMutable(g model.MutableGraph, budget int) *FlakyMutable {
	return &FlakyMutable{FlakyGraph: NewFlaky(g, budget), m: g}
}

// AddNode implements model.MutableGraph, passing through.
func (f *FlakyMutable) AddNode(label string, props model.Properties) (model.NodeID, error) {
	return f.m.AddNode(label, props)
}

// AddEdge implements model.MutableGraph, passing through.
func (f *FlakyMutable) AddEdge(label string, from, to model.NodeID, props model.Properties) (model.EdgeID, error) {
	return f.m.AddEdge(label, from, to, props)
}

// RemoveNode implements model.MutableGraph, passing through.
func (f *FlakyMutable) RemoveNode(id model.NodeID) error { return f.m.RemoveNode(id) }

// RemoveEdge implements model.MutableGraph, passing through.
func (f *FlakyMutable) RemoveEdge(id model.EdgeID) error { return f.m.RemoveEdge(id) }

// SetNodeProp implements model.MutableGraph, passing through.
func (f *FlakyMutable) SetNodeProp(id model.NodeID, key string, v model.Value) error {
	return f.m.SetNodeProp(id, key, v)
}

// SetEdgeProp implements model.MutableGraph, passing through.
func (f *FlakyMutable) SetEdgeProp(id model.EdgeID, key string, v model.Value) error {
	return f.m.SetEdgeProp(id, key, v)
}

var _ model.MutableGraph = (*FlakyMutable)(nil)
