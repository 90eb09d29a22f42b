package algo

import (
	"fmt"

	"gdbm/internal/model"
)

// Pattern is a small query graph to be matched against a data graph (the
// survey's "pattern matching queries"). Pattern nodes may constrain the data
// node's label and property values; pattern edges may constrain the edge
// label and are directed. plan.MatchPattern evaluates it.
type Pattern struct {
	nodes []PatternNode
	edges []PatternEdge
}

// PatternNode constrains one matched node. Empty Label and nil Props match
// anything.
type PatternNode struct {
	// Var names the node in match results.
	Var string
	// Label, if non-empty, must equal the data node's label.
	Label string
	// Props, if non-nil, must be a subset of the data node's properties.
	Props model.Properties
}

// PatternEdge constrains one matched edge between two pattern nodes
// (by index into the pattern's node list).
type PatternEdge struct {
	From, To int
	// Label, if non-empty, must equal the data edge's label.
	Label string
}

// NewPattern builds a pattern; it validates edge endpoints and rejects two
// nodes of the same name (see Var).
func NewPattern(nodes []PatternNode, edges []PatternEdge) (*Pattern, error) {
	p := &Pattern{nodes: nodes, edges: edges}
	seen := make(map[string]bool, len(nodes))
	for i := range nodes {
		v := p.Var(i)
		if seen[v] {
			return nil, fmt.Errorf("pattern node %d repeats variable %q", i, v)
		}
		seen[v] = true
	}
	for i, e := range edges {
		if e.From < 0 || e.From >= len(nodes) || e.To < 0 || e.To >= len(nodes) {
			return nil, fmt.Errorf("pattern edge %d references node out of range", i)
		}
	}
	return p, nil
}

// Nodes returns the node constraints in index order; callers must not
// modify the slice.
func (p *Pattern) Nodes() []PatternNode { return p.nodes }

// Edges returns the edge constraints; callers must not modify the slice.
func (p *Pattern) Edges() []PatternEdge { return p.edges }

// Var is the name node i binds in a Match: its Var, or _<i> when anonymous.
func (p *Pattern) Var(i int) string {
	if v := p.nodes[i].Var; v != "" {
		return v
	}
	return fmt.Sprintf("_%d", i)
}

// Match is one embedding of the pattern: variable name to data node.
type Match map[string]model.NodeID
