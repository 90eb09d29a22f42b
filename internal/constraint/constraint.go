// Package constraint implements four of the six integrity-constraint
// families the survey compares in Table VI: types checking, node/edge
// identity, referential integrity and cardinality checking. The table
// leaves functional dependencies and graph pattern constraints blank for
// every system, so no engine declares them and they have no type here.
// Engines install a Set of constraints and call its hooks around
// mutations; violations surface as model.ErrConstraint.
package constraint

import (
	"fmt"
	"sync"

	"gdbm/internal/model"
)

// Mutation describes a pending change for pre-validation.
type Mutation struct {
	// Exactly one of AddNode/AddEdge/DelNode is meaningful per kind.
	Kind MutationKind
	Node model.Node
	Edge model.Edge
}

// MutationKind discriminates Mutation.
type MutationKind uint8

const (
	AddNode MutationKind = iota
	AddEdge
	DelNode
	UpdateNode
)

// Constraint validates mutations against the current graph. Check is called
// before the mutation is applied.
type Constraint interface {
	// Name identifies the constraint family for Table VI probing.
	Name() string
	// Check returns a model.ErrConstraint-wrapped error to veto m.
	Check(g model.Graph, m Mutation) error
}

// Set is an ordered collection of constraints.
type Set struct {
	mu          sync.RWMutex
	constraints []Constraint
}

// NewSet returns an empty constraint set.
func NewSet() *Set { return &Set{} }

// Add installs a constraint.
func (s *Set) Add(c Constraint) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.constraints = append(s.constraints, c)
}

// Names lists installed constraint names in order.
func (s *Set) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, len(s.constraints))
	for i, c := range s.constraints {
		out[i] = c.Name()
	}
	return out
}

// Check runs every constraint against the mutation.
func (s *Set) Check(g model.Graph, m Mutation) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, c := range s.constraints {
		if err := c.Check(g, m); err != nil {
			return err
		}
	}
	return nil
}

// --- types checking ---

// Types validates node and edge records against a schema (Table VI "Types
// checking").
type Types struct {
	Schema *model.Schema
}

// Name implements Constraint.
func (Types) Name() string { return "types" }

// Check implements Constraint. An edge's endpoint labels are read from g; a
// missing endpoint reads as the empty label.
func (t Types) Check(g model.Graph, m Mutation) error {
	switch m.Kind {
	case AddNode, UpdateNode:
		return t.Schema.CheckNode(m.Node)
	case AddEdge:
		return t.Schema.CheckEdge(m.Edge, label(g, m.Edge.From), label(g, m.Edge.To))
	}
	return nil
}

// label returns node id's label in g, or "" when g has no such node.
func label(g model.Graph, id model.NodeID) string {
	n, err := g.Node(id)
	if err != nil {
		return ""
	}
	return n.Label
}

// --- node/edge identity ---

// Identity requires the named property to uniquely identify nodes with the
// given label (Table VI "Node/edge identity"). An empty label applies to all
// nodes.
type Identity struct {
	Label string
	Prop  string
}

// Name implements Constraint.
func (Identity) Name() string { return "identity" }

// Check implements Constraint.
func (c Identity) Check(g model.Graph, m Mutation) error {
	if m.Kind != AddNode && m.Kind != UpdateNode {
		return nil
	}
	if c.Label != "" && m.Node.Label != c.Label {
		return nil
	}
	v := m.Node.Props.Get(c.Prop)
	if v.IsNull() {
		return fmt.Errorf("identity: node of type %q must set %q: %w", m.Node.Label, c.Prop, model.ErrConstraint)
	}
	var clash bool
	err := g.Nodes(func(n model.Node) bool {
		if n.ID != m.Node.ID && (c.Label == "" || n.Label == c.Label) && n.Props.Get(c.Prop).Equal(v) {
			clash = true
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	if clash {
		return fmt.Errorf("identity: duplicate %q=%v for type %q: %w", c.Prop, v, c.Label, model.ErrConstraint)
	}
	return nil
}

// --- referential integrity ---

// Referential requires edge endpoints to exist and forbids deleting nodes
// that still have incident edges (Table VI "Referential integrity").
type Referential struct{}

// Name implements Constraint.
func (Referential) Name() string { return "referential" }

// Check implements Constraint.
func (Referential) Check(g model.Graph, m Mutation) error {
	switch m.Kind {
	case AddEdge:
		for _, id := range []model.NodeID{m.Edge.From, m.Edge.To} {
			if _, err := g.Node(id); err != nil {
				return fmt.Errorf("referential: edge references missing node %d: %w", id, model.ErrConstraint)
			}
		}
	case DelNode:
		d, err := g.Degree(m.Node.ID, model.Both)
		if err != nil {
			return nil // already gone; nothing to protect
		}
		if d > 0 {
			return fmt.Errorf("referential: node %d still has %d incident edges: %w", m.Node.ID, d, model.ErrConstraint)
		}
	}
	return nil
}

// --- cardinality ---

// Cardinality bounds the number of outgoing edges with a label per source
// node (Table VI "Cardinality checking"). Max <= 0 means only Min applies;
// Min is validated by ValidateGraph since insertion order must be free to
// pass through low counts.
type Cardinality struct {
	EdgeLabel string
	Max       int
}

// Name implements Constraint.
func (Cardinality) Name() string { return "cardinality" }

// Check implements Constraint.
func (c Cardinality) Check(g model.Graph, m Mutation) error {
	if m.Kind != AddEdge || m.Edge.Label != c.EdgeLabel || c.Max <= 0 {
		return nil
	}
	count := 0
	err := g.Neighbors(m.Edge.From, model.Out, func(e model.Edge, _ model.Node) bool {
		if e.Label == c.EdgeLabel {
			count++
		}
		return count <= c.Max
	})
	if err != nil {
		return err
	}
	if count >= c.Max {
		return fmt.Errorf("cardinality: node %d already has %d %q edges (max %d): %w",
			m.Edge.From, count, c.EdgeLabel, c.Max, model.ErrConstraint)
	}
	return nil
}
