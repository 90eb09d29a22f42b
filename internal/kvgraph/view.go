package kvgraph

import (
	"errors"
	"fmt"

	"gdbm/internal/memgraph"
	"gdbm/internal/model"
	"gdbm/internal/query/stats"
)

// This file is the graph's read-concurrency surface: the pinned views of
// AcquireView and the planner statistics. A view is a frozen state of a
// memgraph mirror, an in-memory copy of the store's records that the first
// AcquireView builds from one scan of the node records and one of the edge
// records (checked against the adjacency entries), and that every mutation
// then keeps current under mu, after its store writes succeed. The mirror
// serves pinned views only: statements execute against the live store
// (every Node, Edge and AppendNeighborIDs an operator issues is a B+tree
// read here, the last one prefix range per direction), and the planner's
// statistics are scanned from it too.

// AcquireView pins an immutable point-in-time view of the graph: a frozen
// state of the mirror (memgraph's AcquireView), which a writer never
// blocks and never changes. The first call builds the mirror, reading
// every record of the store under mu; later calls are O(1), and wait only
// for a mutation in flight. The release is idempotent.
func (g *Graph) AcquireView() (model.Graph, model.ReleaseFunc, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.mirror == nil {
		m, err := g.buildMirror()
		if err != nil {
			return nil, nil, err
		}
		g.mirror = m
	}
	return g.mirror.AcquireView()
}

// buildMirror copies the store's records into a new memgraph, each at its
// own id. The caller holds mu, so no write lands between the scans. It
// also counts the adjacency entries and refuses a store whose entries
// disagree in number with its edge records, as a write that failed part
// way can leave it: the view would show edges the store's own adjacency
// lacks, or miss ones it has.
func (g *Graph) buildMirror() (*memgraph.Graph, error) {
	m := memgraph.New()
	var putErr error
	put := func(err error) bool {
		putErr = err
		return err == nil
	}
	var entries [len(adjDirs)]int
	for i, d := range adjDirs {
		if err := g.st.Scan([]byte(d.prefix), func(_, _ []byte) bool { entries[i]++; return true }); err != nil {
			return nil, err
		}
	}
	if err := g.Nodes(func(n model.Node) bool { return put(m.PutNode(n)) }); err != nil || putErr != nil {
		return nil, errors.Join(err, putErr)
	}
	if err := g.Edges(func(e model.Edge) bool { return put(m.PutEdge(e)) }); err != nil || putErr != nil {
		return nil, errors.Join(err, putErr)
	}
	if size := m.Size(); entries[0] != size || entries[1] != size {
		return nil, fmt.Errorf("kvgraph: %d out and %d in adjacency entries for %d edge records", entries[0], entries[1], size)
	}
	return m, nil
}

// keepMirror drops the mirror when a change to it failed, for the next
// pin to rebuild. The caller holds mu.
func (g *Graph) keepMirror(err error) {
	if err != nil {
		g.mirror = nil
	}
}

// dropMirrorOn drops the mirror when a mutation failed past its
// validation: it may have written some of its keys, so the next pin
// rebuilds the mirror from what the store holds. Mutations defer it after
// their first epoch bump, so a rejected one keeps the mirror. The caller
// holds mu.
func (g *Graph) dropMirrorOn(err *error) {
	g.keepMirror(*err)
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

var (
	_ model.Pinner   = (*Graph)(nil)
	_ stats.Provider = (*Graph)(nil)
)
