package kvgraph

import (
	"encoding/binary"

	"gdbm/internal/adj"
	"gdbm/internal/model"
	"gdbm/internal/query/stats"
)

// This file is the graph's read-concurrency surface: epoch-based
// copy-on-write views rendered into succinct adjacency snapshots
// (internal/adj), and the planner statistics. The mutation epoch kvgraph
// already double-bumps for the cache layer doubles as the view version:
// AcquireView pins the published snapshot in O(1) when the epoch is
// unchanged and re-reads only the records written since otherwise,
// decoding records once into block arrays so that a reader of the view
// never touches the store. Only AcquireSnapshot callers get that, and no
// view is rendered until one asks. Statements execute against the live
// store — every Node, Edge and AppendNeighborIDs an operator issues is a
// B+tree read here, the last one prefix range per direction — and the
// planner's statistics are scanned from it too.

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

// PlanStats implements stats.Provider: the published statistics while the
// graph has drifted from them by at most a sixteenth, and otherwise a
// stats.Build over the live store (see stats.Versioned.Get). The rebuild
// does not take mu: it reads only the node and edge record ranges, each in
// one store scan, and a write that lands between or during them counts as
// drift from the stamp. Holding mu would stall every write behind the
// whole scan (tens of milliseconds on a disk store of a few thousand
// nodes) to make exact what the bound already tolerates.
func (g *Graph) PlanStats() (*stats.Stats, error) {
	return g.stats.Get(g, g.epoch.Current)
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
