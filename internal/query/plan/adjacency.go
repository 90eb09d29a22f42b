package plan

import "gdbm/internal/model"

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
