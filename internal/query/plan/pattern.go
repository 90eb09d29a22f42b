package plan

import (
	"context"

	"gdbm/internal/algo"
	"gdbm/internal/model"
	"gdbm/internal/query"
)

// MatchPattern returns the embeddings of p in g: the assignments of p's
// nodes to pairwise distinct data nodes under which every pattern edge
// From→To is a data edge, each assignment once, at most limit of them
// (0 = all). A match names its nodes by p.Var.
//
// The planners match homomorphically, one row per edge; MatchPattern asks
// them for the distinct assignments and keeps the node-injective ones, the
// survey's subgraph-isomorphism reading. The search runs under ctx.
func MatchPattern(ctx context.Context, g model.Graph, p *algo.Pattern, limit int) ([]algo.Match, error) {
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
	out   []algo.Match
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
	m := make(algo.Match, len(s.ids))
	for i, id := range s.ids {
		m[s.cols[i]] = id
	}
	s.out = append(s.out, m)
	if s.limit > 0 && len(s.out) >= s.limit {
		return errStop
	}
	return nil
}
