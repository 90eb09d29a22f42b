package memgraph

import (
	"gdbm/internal/adj"
	"gdbm/internal/model"
	"gdbm/internal/query/stats"
)

// PlanStats implements stats.Provider and SortedNeighborIDs implements
// model.SortedAdjacency, both from the pinned copy-on-write view; see adj/planstats.go.
func (g *Graph) PlanStats() (*stats.Stats, error) {
	return adj.PlanStats(g.AcquireView, &g.stats)
}

func (g *Graph) SortedNeighborIDs(id model.NodeID, dir model.Direction, label string) ([]model.NodeID, error) {
	return adj.SortedNeighborIDs(g.AcquireView, id, dir, label)
}

var (
	_ stats.Provider        = (*Graph)(nil)
	_ model.SortedAdjacency = (*Graph)(nil)
)
