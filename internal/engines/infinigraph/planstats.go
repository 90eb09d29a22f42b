package infinigraph

import (
	"gdbm/internal/adj"
	"gdbm/internal/model"
	"gdbm/internal/query/stats"
)

// PlanStats implements stats.Provider and SortedNeighborIDs implements
// model.SortedAdjacency, both from the pinned merged-shard snapshot; see adj/planstats.go.
func (db *DB) PlanStats() (*stats.Stats, error) {
	return adj.PlanStats(db.AcquireSnapshot, &db.pstats)
}

func (db *DB) SortedNeighborIDs(id model.NodeID, dir model.Direction, label string) ([]model.NodeID, error) {
	return adj.SortedNeighborIDs(db.AcquireSnapshot, id, dir, label)
}

var (
	_ stats.Provider        = (*DB)(nil)
	_ model.SortedAdjacency = (*DB)(nil)
)
