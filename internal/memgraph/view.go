package memgraph

import (
	"gdbm/internal/adj"
	"gdbm/internal/model"
	"gdbm/internal/query/stats"
)

// This file is the graph's read-concurrency surface: epoch-based
// copy-on-write views rendered into succinct adjacency snapshots
// (internal/adj), and the planner statistics. Every mutation double-bumps
// the epoch under the write lock (odd mid-mutation, even at rest — the
// same discipline kvgraph uses for the cache layer) and marks the touched
// records dirty; AcquireView pins the published snapshot in O(1) when the
// store is quiescent and re-reads only the dirty records otherwise. No
// view is rendered until an AcquireView caller asks for one: the planner's
// statistics are scanned from the live graph.

// Epoch returns the graph's mutation epoch. Stable states are even; the
// count only moves forward.
func (g *Graph) Epoch() uint64 { return g.epoch.Current() }

// AcquireView pins an immutable point-in-time view of the graph. The fast
// path is O(1): when the published snapshot already renders the current
// stable epoch, acquisition is one atomic load and a pin, independent of
// graph size. Otherwise the read lock is taken (excluding writers, not
// readers) and the dirty records are re-read. The release must be
// called exactly once; it is idempotent.
func (g *Graph) AcquireView() (model.Graph, model.ReleaseFunc, error) {
	if s, rel := g.ver.TryPin(g.epoch.Current()); rel != nil {
		return s, rel, nil
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	s, rel, err := g.ver.Pin(g.epoch.Current(), memSource{g})
	if err != nil {
		return nil, nil, err
	}
	return s, rel, nil
}

// PlanStats implements stats.Provider: the published statistics while the
// graph has drifted from them by at most a sixteenth, and otherwise a
// stats.Build over the live graph (see stats.Versioned.Get). The scan
// copies the records under the read lock, so writers wait for the copy,
// not for the statistics.
func (g *Graph) PlanStats() (*stats.Stats, error) {
	return g.stats.Get(g, g.epoch.Current)
}

// memSource adapts the graph's internals to the snapshot builder. Its
// methods are unlocked: Versioned.Pin is called with g.mu held (read side,
// which excludes writers), so the slices are quiescent for the whole render.
type memSource struct{ g *Graph }

func (s memSource) MaxNodeID() (model.NodeID, error) { return model.NodeID(len(s.g.nodes) - 1), nil }
func (s memSource) MaxEdgeID() (model.EdgeID, error) { return model.EdgeID(len(s.g.edges) - 1), nil }

func (s memSource) NodeByID(id model.NodeID) (model.Node, bool, error) {
	if n := s.g.node(id); n != nil {
		return n.Node, true, nil
	}
	return model.Node{}, false, nil
}

func (s memSource) EdgeByID(id model.EdgeID) (model.Edge, bool, error) {
	if e := s.g.edge(id); e != nil {
		return *e, true, nil
	}
	return model.Edge{}, false, nil
}

func (s memSource) OutEdges(id model.NodeID) ([]model.EdgeID, error) {
	if n := s.g.node(id); n != nil {
		return n.out, nil
	}
	return nil, nil
}

func (s memSource) InEdges(id model.NodeID) ([]model.EdgeID, error) {
	if n := s.g.node(id); n != nil {
		return n.in, nil
	}
	return nil, nil
}

var (
	_ model.Pinner   = (*Graph)(nil)
	_ stats.Provider = (*Graph)(nil)
	_ adj.Source     = memSource{}
)
