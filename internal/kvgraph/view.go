package kvgraph

import (
	"encoding/binary"

	"gdbm/internal/adj"
	"gdbm/internal/model"
	"gdbm/internal/query/stats"
)

// This file is the graph's read-concurrency surface: epoch-based
// copy-on-write views rendered into succinct adjacency snapshots
// (internal/adj). The mutation epoch kvgraph already double-bumps for the
// cache layer doubles as the view version: AcquireView pins the published
// snapshot in O(1) when the epoch is unchanged and re-reads only the
// records written since otherwise, decoding records once into block arrays so
// that a reader of the view never touches the store. Only the view's
// readers get that: AcquireSnapshot callers and the planner's statistics.
// Statements execute against the live store — every Node, Edge and
// AppendNeighborIDs an operator issues is a B+tree read here, the last one
// prefix range per direction.

// AcquireView pins an immutable point-in-time view of the graph. The fast
// path is O(1): when the published snapshot already renders the current
// stable epoch, acquisition is one atomic load and a pin, independent of
// graph size. Otherwise the mutation mutex is taken to exclude writers
// while the dirty records are re-read from the store. The release must be
// called exactly once; it is idempotent.
func (g *Graph) AcquireView() (model.Graph, model.ReleaseFunc, error) {
	if s, rel := g.ver.TryPin(g.epoch.Current()); rel != nil {
		return s, rel, nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	s, rel, err := g.ver.Pin(g.epoch.Current(), kvSource{g})
	if err != nil {
		return nil, nil, err
	}
	return s, rel, nil
}

// PlanStats implements stats.Provider from the pinned view; see
// adj/planstats.go.
func (g *Graph) PlanStats() (*stats.Stats, error) {
	return adj.PlanStats(g.AcquireView, &g.stats)
}

// kvSource adapts the key layout to the snapshot builder. Its reads do not
// take g.mu (the stores are internally synchronized), so they are safe to
// call from Versioned.Pin while AcquireView holds the mutex.
type kvSource struct{ g *Graph }

func (s kvSource) counter(key string) (uint64, error) {
	raw, ok, err := s.g.st.Get([]byte(key))
	if err != nil || !ok {
		return 0, err
	}
	return binary.BigEndian.Uint64(raw), nil
}

func (s kvSource) MaxNodeID() (model.NodeID, error) {
	n, err := s.counter("M!n")
	return model.NodeID(n), err
}

func (s kvSource) MaxEdgeID() (model.EdgeID, error) {
	n, err := s.counter("M!e")
	return model.EdgeID(n), err
}

func (s kvSource) NodeByID(id model.NodeID) (model.Node, bool, error) {
	raw, ok, err := s.g.st.Get(u64key("n!", uint64(id)))
	if err != nil || !ok {
		return model.Node{}, false, err
	}
	n, err := decodeNodeRecord(id, raw)
	if err != nil {
		return model.Node{}, false, err
	}
	return n, true, nil
}

func (s kvSource) EdgeByID(id model.EdgeID) (model.Edge, bool, error) {
	raw, ok, err := s.g.st.Get(u64key("e!", uint64(id)))
	if err != nil || !ok {
		return model.Edge{}, false, err
	}
	e, err := decodeEdgeRecord(id, raw)
	if err != nil {
		return model.Edge{}, false, err
	}
	return e, true, nil
}

func (s kvSource) incident(prefix string, id model.NodeID) ([]model.EdgeID, error) {
	var eids []model.EdgeID
	err := s.g.st.Scan(adjPrefix(prefix, uint64(id)), func(k, _ []byte) bool {
		eids = append(eids, model.EdgeID(binary.BigEndian.Uint64(k[len(k)-8:])))
		return true
	})
	return eids, err
}

func (s kvSource) OutEdges(id model.NodeID) ([]model.EdgeID, error) {
	return s.incident("o!", id)
}

func (s kvSource) InEdges(id model.NodeID) ([]model.EdgeID, error) {
	return s.incident("i!", id)
}

var (
	_ model.Pinner   = (*Graph)(nil)
	_ stats.Provider = (*Graph)(nil)
	_ adj.Source     = kvSource{}
)
