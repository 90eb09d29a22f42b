// Package kvgraph layers a property graph over an ordered key/value store —
// the construction the survey describes for VertexDB (a graph store on top
// of TokyoCabinet) and the storage role Filament delegates to SQL/JDBC.
// Backed by kv.Memory it is a main-memory graph; backed by kv.Disk it is an
// external-memory/backend-storage graph.
//
// Key layout (prefix bytes keep record classes in disjoint ranges):
//
//	M!n / M!e          -> next node / edge id (8-byte big endian)
//	n!<id>             -> node record
//	e!<id>             -> edge record
//	o!<node>!<edge>    -> out-adjacency entry (value: far node id, edge label)
//	i!<node>!<edge>    -> in-adjacency entry (value: far node id, edge label)
//
// An adjacency value is the far node id (8-byte big endian) followed by the
// edge label behind its uvarint length, so a node's adjacency in one
// direction — ids and labels, without a record — is one prefix range.
// Stores written before the label was kept there hold the far id alone;
// they still read correctly (see decodeAdjValue).
package kvgraph

import (
	"encoding/binary"
	"fmt"
	"sync"

	"gdbm/internal/cache"
	"gdbm/internal/memgraph"
	"gdbm/internal/model"
	"gdbm/internal/obs"
	"gdbm/internal/query/stats"
	"gdbm/internal/storage/kv"
)

// Graph is a property graph stored in a kv.Store. Reads are safe for
// concurrent use because the stores in this repository are internally
// synchronized; mutations additionally serialize on a graph-level mutex —
// each is a multi-key read-modify-write sequence (id allocation, record,
// adjacency entries) that per-key store locking alone cannot keep atomic.
//
// Every mutation bumps the graph epoch twice (entry and exit, under mu) —
// after validating its target, so a rejected mutation invalidates nothing.
// Engines key their statement-result caches on Epoch(), publishing an
// entry only when the epoch stayed stable across the computation, and the
// planner statistics (view.go) are versioned on it; see the cache.Epoch
// contract.
type Graph struct {
	mu    sync.Mutex // serializes mutations
	st    kv.Store
	epoch cache.Epoch
	stats stats.Versioned // planner statistics, see PlanStats (view.go)

	// mirror is the in-memory copy of the records that AcquireView pins
	// (view.go), guarded by mu: nil until the first pin builds it, and
	// after a mutation that failed part-way drops it.
	mirror *memgraph.Graph

	// The M!n and M!e counters as last written, guarded by mu.
	nodeIDs, edgeIDs idCounter

	// Observability counters; nil-safe no-ops until SetMetrics.
	mNodeReads, mEdgeReads, mAdjScans *obs.Counter
}

// idCounter mirrors a stored id counter: last is its value once read is set.
type idCounter struct {
	last uint64
	read bool
}

// New wraps a kv store as a graph.
func New(st kv.Store) *Graph { return &Graph{st: st} }

// SetMetrics routes the graph's counters (kvgraph.node_reads,
// kvgraph.edge_reads, kvgraph.adj_scans) into r. Call before sharing the
// graph.
func (g *Graph) SetMetrics(r *obs.Registry) {
	g.mNodeReads = r.Counter("kvgraph.node_reads")
	g.mEdgeReads = r.Counter("kvgraph.edge_reads")
	g.mAdjScans = r.Counter("kvgraph.adj_scans")
}

// Epoch returns the graph's current version. It changes (at least) twice
// per mutation; a value observed identical before and after a read-only
// computation proves no mutation overlapped it.
func (g *Graph) Epoch() uint64 { return g.epoch.Current() }

// Store exposes the underlying store (for flushing/closing by the owner).
func (g *Graph) Store() kv.Store { return g.st }

func u64key(prefix string, id uint64) []byte {
	k := make([]byte, 0, len(prefix)+8)
	k = append(k, prefix...)
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], id)
	return append(k, b[:]...)
}

// adjPrefix is the key prefix of node's adjacency entries under prefix
// ("o!" or "i!"), with room for the edge id adjKey appends.
func adjPrefix(prefix string, node uint64) []byte {
	k := make([]byte, 0, len(prefix)+17)
	k = append(k, prefix...)
	k = binary.BigEndian.AppendUint64(k, node)
	return append(k, '!')
}

func adjKey(prefix string, node, edge uint64) []byte {
	return binary.BigEndian.AppendUint64(adjPrefix(prefix, node), edge)
}

type adjDir struct {
	dir    model.Direction
	prefix string
}

// adjDirs are the two stored directions, out before in: the order
// Neighbors emits.
var adjDirs = [...]adjDir{{model.Out, "o!"}, {model.In, "i!"}}

// adjDirsFor returns the stored directions dir reads.
func adjDirsFor(dir model.Direction) []adjDir {
	switch dir {
	case model.Out:
		return adjDirs[:1]
	case model.In:
		return adjDirs[1:]
	}
	return adjDirs[:]
}

func adjValue(far model.NodeID, label string) []byte {
	v := make([]byte, 8, 8+binary.MaxVarintLen64+len(label))
	binary.BigEndian.PutUint64(v, uint64(far))
	v = binary.AppendUvarint(v, uint64(len(label)))
	return append(v, label...)
}

// decodeAdjValue splits the value of adjacency entry k into the far node id
// and the edge label. A value holding the far id alone, as stores written
// before labels were kept beside it do, decodes with labelled false.
func decodeAdjValue(k, v []byte) (far model.NodeID, label []byte, labelled bool, err error) {
	if len(v) < 8 {
		return 0, nil, false, fmt.Errorf("kvgraph: corrupt adjacency entry %q", k)
	}
	far = model.NodeID(binary.BigEndian.Uint64(v))
	if len(v) == 8 {
		return far, nil, false, nil
	}
	ll, w := binary.Uvarint(v[8:])
	if w <= 0 || ll != uint64(len(v)-8-w) {
		return 0, nil, false, fmt.Errorf("kvgraph: corrupt adjacency entry %q", k)
	}
	return far, v[8+w:], true, nil
}

// nextID allocates the next id from counter c, whose key is key. The first
// call reads the stored counter; later ones only write it, since every
// allocation goes through g under g.mu. The count advances only once the
// write succeeds.
func (g *Graph) nextID(c *idCounter, key string) (uint64, error) {
	if !c.read {
		raw, ok, err := g.st.Get([]byte(key))
		if err != nil {
			return 0, err
		}
		if ok {
			c.last = binary.BigEndian.Uint64(raw)
		}
		c.read = true
	}
	n := c.last + 1
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], n)
	if err := g.st.Put([]byte(key), b[:]); err != nil {
		return 0, err
	}
	c.last = n
	return n, nil
}

func encodeNodeRecord(n model.Node) ([]byte, error) {
	props, err := n.Props.MarshalBinary()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, 2+len(n.Label)+len(props))
	buf = binary.AppendUvarint(buf, uint64(len(n.Label)))
	buf = append(buf, n.Label...)
	buf = append(buf, props...)
	return buf, nil
}

func decodeNodeRecord(id model.NodeID, data []byte) (model.Node, error) {
	ll, w := binary.Uvarint(data)
	if w <= 0 || int(ll) > len(data)-w {
		return model.Node{}, fmt.Errorf("kvgraph: corrupt node record %d", id)
	}
	label := string(data[w : w+int(ll)])
	props, err := model.UnmarshalProperties(data[w+int(ll):])
	if err != nil {
		return model.Node{}, err
	}
	if len(props) == 0 {
		props = nil
	}
	return model.Node{ID: id, Label: label, Props: props}, nil
}

func encodeEdgeRecord(e model.Edge) ([]byte, error) {
	props, err := e.Props.MarshalBinary()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, 18+len(e.Label)+len(props))
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(e.From))
	buf = append(buf, b[:]...)
	binary.BigEndian.PutUint64(b[:], uint64(e.To))
	buf = append(buf, b[:]...)
	buf = binary.AppendUvarint(buf, uint64(len(e.Label)))
	buf = append(buf, e.Label...)
	buf = append(buf, props...)
	return buf, nil
}

func decodeEdgeRecord(id model.EdgeID, data []byte) (model.Edge, error) {
	if len(data) < 16 {
		return model.Edge{}, fmt.Errorf("kvgraph: corrupt edge record %d", id)
	}
	from := model.NodeID(binary.BigEndian.Uint64(data[0:8]))
	to := model.NodeID(binary.BigEndian.Uint64(data[8:16]))
	rest := data[16:]
	ll, w := binary.Uvarint(rest)
	if w <= 0 || int(ll) > len(rest)-w {
		return model.Edge{}, fmt.Errorf("kvgraph: corrupt edge record %d", id)
	}
	label := string(rest[w : w+int(ll)])
	props, err := model.UnmarshalProperties(rest[w+int(ll):])
	if err != nil {
		return model.Edge{}, err
	}
	if len(props) == 0 {
		props = nil
	}
	return model.Edge{ID: id, Label: label, From: from, To: to, Props: props}, nil
}

// AddNode implements model.MutableGraph.
func (g *Graph) AddNode(label string, props model.Properties) (_ model.NodeID, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.epoch.Bump()
	defer g.epoch.Bump()
	defer g.dropMirrorOn(&err)
	id, err := g.nextID(&g.nodeIDs, "M!n")
	if err != nil {
		return 0, err
	}
	rec, err := encodeNodeRecord(model.Node{Label: label, Props: props})
	if err != nil {
		return 0, err
	}
	if err := g.st.Put(u64key("n!", id), rec); err != nil {
		return 0, err
	}
	if m := g.mirror; m != nil {
		g.keepMirror(m.PutNode(model.Node{ID: model.NodeID(id), Label: label, Props: props}))
	}
	return model.NodeID(id), nil
}

// AddEdge implements model.MutableGraph.
func (g *Graph) AddEdge(label string, from, to model.NodeID, props model.Properties) (_ model.EdgeID, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := g.hasNode(from); err != nil {
		return 0, err
	}
	if err := g.hasNode(to); err != nil {
		return 0, err
	}
	g.epoch.Bump()
	defer g.epoch.Bump()
	defer g.dropMirrorOn(&err)
	id, err := g.nextID(&g.edgeIDs, "M!e")
	if err != nil {
		return 0, err
	}
	rec, err := encodeEdgeRecord(model.Edge{From: from, To: to, Label: label, Props: props})
	if err != nil {
		return 0, err
	}
	if err := g.st.Put(u64key("e!", id), rec); err != nil {
		return 0, err
	}
	if err := g.st.Put(adjKey("o!", uint64(from), id), adjValue(to, label)); err != nil {
		return 0, err
	}
	if err := g.st.Put(adjKey("i!", uint64(to), id), adjValue(from, label)); err != nil {
		return 0, err
	}
	if m := g.mirror; m != nil {
		g.keepMirror(m.PutEdge(model.Edge{ID: model.EdgeID(id), Label: label, From: from, To: to, Props: props}))
	}
	return model.EdgeID(id), nil
}

// Node implements model.Graph.
func (g *Graph) Node(id model.NodeID) (model.Node, error) {
	g.mNodeReads.Inc()
	raw, ok, err := g.st.Get(u64key("n!", uint64(id)))
	if err != nil {
		return model.Node{}, err
	}
	if !ok {
		return model.Node{}, model.NodeNotFound(id)
	}
	return decodeNodeRecord(id, raw)
}

// hasNode is Node for a caller that needs only to know the node exists: it
// reads the record without decoding it.
func (g *Graph) hasNode(id model.NodeID) error {
	g.mNodeReads.Inc()
	_, ok, err := g.st.Get(u64key("n!", uint64(id)))
	if err == nil && !ok {
		err = model.NodeNotFound(id)
	}
	return err
}

// Edge implements model.Graph.
func (g *Graph) Edge(id model.EdgeID) (model.Edge, error) {
	g.mEdgeReads.Inc()
	raw, ok, err := g.st.Get(u64key("e!", uint64(id)))
	if err != nil {
		return model.Edge{}, err
	}
	if !ok {
		return model.Edge{}, model.EdgeNotFound(id)
	}
	return decodeEdgeRecord(id, raw)
}

// RemoveNode implements model.MutableGraph; incident edges are removed too.
func (g *Graph) RemoveNode(id model.NodeID) (err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, err := g.Node(id); err != nil {
		return err
	}
	g.epoch.Bump()
	defer g.epoch.Bump()
	defer g.dropMirrorOn(&err)
	seen := map[model.EdgeID]bool{}
	var eids []model.EdgeID
	collect := func(prefix string) error {
		return g.st.Scan(adjPrefix(prefix, uint64(id)), func(k, _ []byte) bool {
			eid := model.EdgeID(binary.BigEndian.Uint64(k[len(k)-8:]))
			if !seen[eid] { // self-loops appear in both adjacency lists
				seen[eid] = true
				eids = append(eids, eid)
			}
			return true
		})
	}
	if err := collect("o!"); err != nil {
		return err
	}
	if err := collect("i!"); err != nil {
		return err
	}
	for _, eid := range eids {
		e, err := g.Edge(eid)
		if err != nil {
			return err
		}
		if err := g.removeEdgeLocked(e); err != nil {
			return err
		}
	}
	if _, err := g.st.Delete(u64key("n!", uint64(id))); err != nil {
		return err
	}
	if m := g.mirror; m != nil {
		g.keepMirror(m.RemoveNode(id)) // its incident edges too, as above
	}
	return nil
}

// RemoveEdge implements model.MutableGraph.
func (g *Graph) RemoveEdge(id model.EdgeID) (err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	e, err := g.Edge(id)
	if err != nil {
		return err
	}
	g.epoch.Bump()
	defer g.epoch.Bump()
	defer g.dropMirrorOn(&err)
	if err := g.removeEdgeLocked(e); err != nil {
		return err
	}
	if m := g.mirror; m != nil {
		g.keepMirror(m.RemoveEdge(id))
	}
	return nil
}

// removeEdgeLocked deletes e's record and adjacency entries; the caller
// holds mu and has bumped the epoch.
func (g *Graph) removeEdgeLocked(e model.Edge) error {
	id := e.ID
	if _, err := g.st.Delete(u64key("e!", uint64(id))); err != nil {
		return err
	}
	if _, err := g.st.Delete(adjKey("o!", uint64(e.From), uint64(id))); err != nil {
		return err
	}
	if _, err := g.st.Delete(adjKey("i!", uint64(e.To), uint64(id))); err != nil {
		return err
	}
	return nil
}

// SetNodeProp implements model.MutableGraph.
func (g *Graph) SetNodeProp(id model.NodeID, key string, v model.Value) (err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	n, err := g.Node(id)
	if err != nil {
		return err
	}
	g.epoch.Bump()
	defer g.epoch.Bump()
	defer g.dropMirrorOn(&err)
	if n.Props == nil {
		n.Props = model.Properties{}
	}
	n.Props[key] = v
	rec, err := encodeNodeRecord(n)
	if err != nil {
		return err
	}
	if err := g.st.Put(u64key("n!", uint64(id)), rec); err != nil {
		return err
	}
	if m := g.mirror; m != nil {
		g.keepMirror(m.SetNodeProp(id, key, v))
	}
	return nil
}

// SetEdgeProp implements model.MutableGraph.
func (g *Graph) SetEdgeProp(id model.EdgeID, key string, v model.Value) (err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	e, err := g.Edge(id)
	if err != nil {
		return err
	}
	g.epoch.Bump()
	defer g.epoch.Bump()
	defer g.dropMirrorOn(&err)
	if e.Props == nil {
		e.Props = model.Properties{}
	}
	e.Props[key] = v
	rec, err := encodeEdgeRecord(e)
	if err != nil {
		return err
	}
	if err := g.st.Put(u64key("e!", uint64(id)), rec); err != nil {
		return err
	}
	if m := g.mirror; m != nil {
		g.keepMirror(m.SetEdgeProp(id, key, v))
	}
	return nil
}

// Order implements model.Graph.
func (g *Graph) Order() int {
	n := 0
	g.st.Scan([]byte("n!"), func(_, _ []byte) bool { n++; return true })
	return n
}

// Size implements model.Graph.
func (g *Graph) Size() int {
	n := 0
	g.st.Scan([]byte("e!"), func(_, _ []byte) bool { n++; return true })
	return n
}

// Nodes implements model.Graph. Records are materialized before fn runs so
// callbacks may issue further store reads (the scan holds the store lock).
func (g *Graph) Nodes(fn func(model.Node) bool) error {
	var decodeErr error
	var nodes []model.Node
	err := g.st.Scan([]byte("n!"), func(k, v []byte) bool {
		id := model.NodeID(binary.BigEndian.Uint64(k[len(k)-8:]))
		n, err := decodeNodeRecord(id, v)
		if err != nil {
			decodeErr = err
			return false
		}
		nodes = append(nodes, n)
		return true
	})
	if decodeErr != nil {
		return decodeErr
	}
	if err != nil {
		return err
	}
	for _, n := range nodes {
		if !fn(n) {
			return nil
		}
	}
	return nil
}

// Edges implements model.Graph; see Nodes for the materialization contract.
func (g *Graph) Edges(fn func(model.Edge) bool) error {
	var decodeErr error
	var edges []model.Edge
	err := g.st.Scan([]byte("e!"), func(k, v []byte) bool {
		id := model.EdgeID(binary.BigEndian.Uint64(k[len(k)-8:]))
		e, err := decodeEdgeRecord(id, v)
		if err != nil {
			decodeErr = err
			return false
		}
		edges = append(edges, e)
		return true
	})
	if decodeErr != nil {
		return decodeErr
	}
	if err != nil {
		return err
	}
	for _, e := range edges {
		if !fn(e) {
			return nil
		}
	}
	return nil
}

// adjEntry is one decoded adjacency record: the incident edge and the node
// at its far end.
type adjEntry struct {
	edge model.Edge
	node model.Node
}

// adjEntriesDir returns the decoded adjacency list for a single stored
// direction.
func (g *Graph) adjEntriesDir(id model.NodeID, d adjDir) ([]adjEntry, error) {
	// Materialize the adjacency entries before fetching records: the
	// store's scan holds its internal lock, so nested Get calls from the
	// callback would self-deadlock.
	var raw []model.NeighborID
	if err := g.scanAdj(id, d, func(p model.NeighborID, _ []byte, _ bool) bool {
		raw = append(raw, p)
		return true
	}); err != nil {
		return nil, err
	}
	ents := make([]adjEntry, 0, len(raw))
	for _, it := range raw {
		e, err := g.Edge(it.Edge)
		if err != nil {
			return nil, err
		}
		far, err := g.Node(it.Node)
		if err != nil {
			return nil, err
		}
		ents = append(ents, adjEntry{edge: e, node: far})
	}
	return ents, nil
}

// scanAdj calls fn with every adjacency entry of id in the stored direction
// d, in key order, until fn returns false. label is valid only during the
// call, and only if labelled. fn must not read the store: the scan may hold
// its lock.
func (g *Graph) scanAdj(id model.NodeID, d adjDir, fn func(p model.NeighborID, label []byte, labelled bool) bool) error {
	g.mAdjScans.Inc()
	var bad error
	err := g.st.Scan(adjPrefix(d.prefix, uint64(id)), func(k, v []byte) bool {
		far, label, labelled, err := decodeAdjValue(k, v)
		if err != nil {
			bad = err
			return false
		}
		return fn(model.NeighborID{Edge: model.EdgeID(binary.BigEndian.Uint64(k[len(k)-8:])), Node: far}, label, labelled)
	})
	if bad != nil {
		return bad
	}
	return err
}

// Neighbors implements model.Graph.
func (g *Graph) Neighbors(id model.NodeID, dir model.Direction, fn func(model.Edge, model.Node) bool) error {
	if _, err := g.Node(id); err != nil {
		return err
	}
	for _, d := range adjDirsFor(dir) {
		ents, err := g.adjEntriesDir(id, d)
		if err != nil {
			return err
		}
		for _, it := range ents {
			if !fn(it.edge, it.node) {
				return nil
			}
		}
	}
	return nil
}

// AppendNeighborIDs implements model.IDAdjacency from the adjacency entries
// alone: one prefix scan per stored direction, in Neighbors' order, the
// label filter read from each entry's value, no edge or node record
// decoded. The node's record is read only when no entry was found, to tell
// a node without incident edges from a missing one. Over an entry stored
// without its label, a labelled request is reported unhandled and the
// caller falls back to Neighbors, which reads the edge record.
func (g *Graph) AppendNeighborIDs(buf []model.NeighborID, id model.NodeID, dir model.Direction, label string) ([]model.NeighborID, bool, error) {
	start := len(buf)
	found, unlabelled := false, false
	for _, d := range adjDirsFor(dir) {
		err := g.scanAdj(id, d, func(p model.NeighborID, lbl []byte, labelled bool) bool {
			found = true
			switch {
			case label == "":
			case !labelled:
				unlabelled = true
				return false
			case string(lbl) != label:
				return true
			}
			buf = append(buf, p)
			return true
		})
		if err != nil {
			return buf[:start], true, err
		}
		if unlabelled {
			return buf[:start], false, nil
		}
	}
	if !found {
		if _, err := g.Node(id); err != nil {
			return buf[:start], true, err
		}
	}
	return buf, true, nil
}

// Degree implements model.Graph.
func (g *Graph) Degree(id model.NodeID, dir model.Direction) (int, error) {
	if _, err := g.Node(id); err != nil {
		return 0, err
	}
	n := 0
	for _, d := range adjDirsFor(dir) {
		if err := g.st.Scan(adjPrefix(d.prefix, uint64(id)), func(_, _ []byte) bool { n++; return true }); err != nil {
			return 0, err
		}
	}
	return n, nil
}

var (
	_ model.MutableGraph = (*Graph)(nil)
	_ model.IDAdjacency  = (*Graph)(nil)
)
