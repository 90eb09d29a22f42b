package plan

import (
	"context"
	"fmt"

	"gdbm/internal/model"
	"gdbm/internal/query"
)

// Pattern is a small query graph to be matched against a data graph (the
// survey's "pattern matching queries"). Pattern nodes may constrain the data
// node's label and property values; pattern edges may constrain the edge
// label and are directed. MatchPattern evaluates it.
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

// MatchPattern returns the embeddings of p in g: the assignments of p's
// nodes to pairwise distinct data nodes under which every pattern edge
// From→To is a data edge, each assignment once, at most limit of them
// (0 = all). A match names its nodes by p.Var.
//
// The planners match homomorphically, one row per edge; MatchPattern asks
// them for the distinct assignments and keeps the node-injective ones, the
// survey's subgraph-isomorphism reading. The search runs under ctx.
func MatchPattern(ctx context.Context, g model.Graph, p *Pattern, limit int) ([]Match, error) {
	nodes := p.Nodes()
	if len(nodes) == 0 {
		return nil, nil
	}
	spec := &MatchSpec{Distinct: true, Limit: -1}
	cols := make([]string, len(nodes))
	for i, n := range nodes {
		cols[i] = p.Var(i)
		spec.Nodes = append(spec.Nodes, NodePat{Var: cols[i], Label: n.Label, Props: n.Props})
		spec.Return = append(spec.Return, Item{Name: cols[i], Expr: query.Var{Name: cols[i]}})
	}
	for _, e := range p.Edges() {
		spec.Edges = append(spec.Edges, EdgePat{From: e.From, To: e.To, Label: e.Label, Dir: model.Out})
	}
	src, ok := g.(Source)
	if !ok {
		src = UnindexedSource{g}
	}
	op, err := CompileFor(spec, src)
	if err != nil {
		return nil, err
	}
	sink := &matchSink{cols: cols, limit: limit}
	if err := Stream(op, WithCancel(ctx, src), cols, sink); err != nil && err != errStop {
		return nil, err
	}
	return sink.out, nil
}

// matchSink keeps the rows that bind no node twice, as matches, and stops
// the search once it holds limit of them.
type matchSink struct {
	cols  []string
	limit int
	ids   []model.NodeID
	out   []Match
}

// Cols implements Sink.
func (*matchSink) Cols([]string) error { return nil }

// Row implements Sink.
func (s *matchSink) Row(vals []model.Value) error {
	s.ids = s.ids[:0]
	for _, v := range vals {
		n, _ := v.AsInt()
		id := model.NodeID(n)
		for _, prev := range s.ids {
			if prev == id {
				return nil
			}
		}
		s.ids = append(s.ids, id)
	}
	m := make(Match, len(s.ids))
	for i, id := range s.ids {
		m[s.cols[i]] = id
	}
	s.out = append(s.out, m)
	if s.limit > 0 && len(s.out) >= s.limit {
		return errStop
	}
	return nil
}
