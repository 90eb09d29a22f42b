package plan

import (
	"slices"

	"gdbm/internal/model"
)

// eachNeighbor calls fn for every edge incident to id in dir carrying label
// ("" = any), with the node at its far end, in Neighbors' order, until fn
// returns an error. A source with model.IDAdjacency hands out (edge id, far
// id) pairs into *buf, no record touched, and fn sees records false: e and
// n carry their IDs alone. Every other source is served by Neighbors, whose
// records come for free. Both enumerate in the same order, so which one
// answered never shows in a result. fn may expand further, but not into buf.
func eachNeighbor(src Source, buf *[]model.NeighborID, id model.NodeID, dir model.Direction, label string, fn func(e model.Edge, n model.Node, records bool) error) error {
	if ia, ok := src.(model.IDAdjacency); ok {
		pairs, handled, err := ia.AppendNeighborIDs((*buf)[:0], id, dir, label)
		if err != nil {
			return err
		}
		if handled {
			*buf = pairs
			c, _ := src.(*cancelSource)
			for _, p := range pairs {
				// The cancellation check due per element, made as each is
				// handed on: a hub stays as interruptible as through Neighbors.
				if c != nil {
					if err := c.tick(); err != nil {
						return err
					}
				}
				if err := fn(model.Edge{ID: p.Edge}, model.Node{ID: p.Node}, false); err != nil {
					return err
				}
			}
			return nil
		}
	}
	var fnErr error
	err := src.Neighbors(id, dir, func(e model.Edge, n model.Node) bool {
		if label != "" && e.Label != label {
			return true
		}
		fnErr = fn(e, n, true)
		return fnErr == nil
	})
	return firstErr(err, fnErr)
}

// SortedNeighborIDs returns the IDs of id's neighbors in dir through edges
// carrying label ("" = any), ascending, one entry per matching edge: the
// lists the worst-case-optimal join intersects. Multiplicity is Neighbors'
// own — parallel edges repeat, and a self-loop under Both appears once per
// direction — because the IDs are collected from the same two sources
// eachNeighbor reads (a store's id pairs where it has them, Neighbors
// otherwise) and sorted here. A source implementing model.SortedAdjacency
// answers for itself.
func SortedNeighborIDs(src Source, id model.NodeID, dir model.Direction, label string) ([]model.NodeID, error) {
	if sa, ok := src.(model.SortedAdjacency); ok {
		return sa.SortedNeighborIDs(id, dir, label)
	}
	return sortedNeighborIDs(src, id, dir, label)
}

// sortedNeighborIDs reads the two sources itself rather than through
// eachNeighbor's callback, whose captured state costs a handful of heap
// allocations per list: a fifth more allocations on a triangle count.
func sortedNeighborIDs(src Source, id model.NodeID, dir model.Direction, label string) ([]model.NodeID, error) {
	if ia, ok := src.(model.IDAdjacency); ok {
		pairs, handled, err := ia.AppendNeighborIDs(nil, id, dir, label)
		if err != nil {
			return nil, err
		}
		if handled {
			c, _ := src.(*cancelSource)
			ids := make([]model.NodeID, len(pairs))
			for i, p := range pairs {
				if c != nil { // one check due per pair, as eachNeighbor makes
					if err := c.tick(); err != nil {
						return nil, err
					}
				}
				ids[i] = p.Node
			}
			slices.Sort(ids)
			return ids, nil
		}
	}
	var ids []model.NodeID // not shared with the branch above: the closure moves it to the heap
	err := src.Neighbors(id, dir, func(e model.Edge, n model.Node) bool {
		if label == "" || e.Label == label {
			ids = append(ids, n.ID)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	slices.Sort(ids)
	return ids, nil
}
