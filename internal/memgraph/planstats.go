package memgraph

import (
	"slices"

	"gdbm/internal/adj"
	"gdbm/internal/model"
	"gdbm/internal/query/stats"
)

// PlanStats implements stats.Provider from the pinned copy-on-write view;
// see adj/planstats.go.
func (g *Graph) PlanStats() (*stats.Stats, error) {
	return adj.PlanStats(g.AcquireView, &g.stats)
}

// SortedNeighborIDs implements model.SortedAdjacency from the live lists,
// like AppendNeighborIDs and for its reason: a statement's adjacency and
// records come from one state, and a list costs no pin.
func (g *Graph) SortedNeighborIDs(id model.NodeID, dir model.Direction, label string) ([]model.NodeID, error) {
	pairs, _, err := g.AppendNeighborIDs(nil, id, dir, label)
	if err != nil {
		return nil, err
	}
	ids := make([]model.NodeID, len(pairs))
	for i, p := range pairs {
		ids[i] = p.Node
	}
	slices.Sort(ids)
	return ids, nil
}

var (
	_ stats.Provider        = (*Graph)(nil)
	_ model.SortedAdjacency = (*Graph)(nil)
)
