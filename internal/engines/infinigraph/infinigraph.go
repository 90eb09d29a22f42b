// Package infinigraph implements the InfiniteGraph-archetype engine: a
// database oriented to large-scale graphs in a *distributed* environment,
// aiming at efficient traversal of relations across massive and distributed
// stores (survey Section II). The distribution substrate is simulated with
// in-process partitions: nodes hash onto shards, edges may cross shards,
// and every traversal transparently spans partitions — exercising the same
// code path as a networked deployment without the network.
package infinigraph

import (
	"context"
	"hash/fnv"
	"path/filepath"
	"sync"

	"gdbm/internal/adj"
	"gdbm/internal/algo"
	"gdbm/internal/cache"
	"gdbm/internal/constraint"
	"gdbm/internal/engine"
	"gdbm/internal/index"
	"gdbm/internal/kvgraph"
	"gdbm/internal/model"
	"gdbm/internal/query/stats"
	"gdbm/internal/storage/kv"
)

func init() {
	engine.Register("infinigraph", "InfiniteGraph", func(opts engine.Options) (engine.Engine, error) {
		return New(opts)
	})
}

// partition is one shard: node records live in the shard their id hashes
// to; each edge is recorded in both endpoint shards so traversals are
// always shard-local reads.
type partition struct {
	nodes map[model.NodeID]*model.Node
	out   map[model.NodeID][]model.EdgeID
	in    map[model.NodeID][]model.EdgeID
}

// DB is the engine instance. Mutations double-bump epoch and mark the
// touched records in ver, which publishes the frozen copy-on-write
// snapshots AcquireSnapshot pins (see the adj package).
type DB struct {
	mu     sync.RWMutex
	parts  []*partition
	edges  map[model.EdgeID]*model.Edge
	nextN  model.NodeID
	nextE  model.EdgeID
	epoch  cache.Epoch
	ver    adj.Versioned
	idx    *index.Manager
	cons   *constraint.Set
	schema *model.Schema
	// CrossEdges counts edges whose endpoints live on different shards —
	// the distribution-sensitive statistic the perf bench reports.
	crossEdges int
	spill      *kvgraph.Graph // external-memory mirror when Dir is set
	disk       *kv.Disk
	pstats     stats.Versioned // planner statistics, epoch-keyed (planstats.go)
}

// New opens an infinigraph with opts.Partitions shards (default 4).
func New(opts engine.Options) (*DB, error) {
	n := opts.Partitions
	if n <= 0 {
		n = 4
	}
	db := &DB{
		parts:  make([]*partition, n),
		edges:  make(map[model.EdgeID]*model.Edge),
		idx:    index.NewManager(),
		cons:   constraint.NewSet(),
		schema: model.NewSchema(),
	}
	for i := range db.parts {
		db.parts[i] = &partition{
			nodes: map[model.NodeID]*model.Node{},
			out:   map[model.NodeID][]model.EdgeID{},
			in:    map[model.NodeID][]model.EdgeID{},
		}
	}
	if _, err := db.idx.Create(index.Nodes, "", index.KindHash); err != nil {
		return nil, err
	}
	db.cons.Add(constraint.Types{Schema: db.schema})
	if opts.Dir != "" {
		// The working graph is sharded main memory; only the spill mirror
		// reads pages back, so CacheBytes funds the page cache alone.
		d, err := kv.OpenDiskWith(filepath.Join(opts.Dir, "infinigraph.pg"), kv.DiskOptions{
			PoolPages: opts.PoolPages, CacheBytes: opts.CacheBytes, FS: opts.FS, Metrics: opts.Metrics,
		})
		if err != nil {
			return nil, err
		}
		db.disk = d
		db.spill = kvgraph.New(d)
		db.spill.SetMetrics(opts.Metrics)
	}
	return db, nil
}

// CacheStats implements engine.CacheStatser; in-memory instances report no
// tiers.
func (db *DB) CacheStats() map[string]cache.Stats {
	out := map[string]cache.Stats{}
	if db.disk != nil {
		out["page"] = db.disk.CacheStats()
	}
	return out
}

// AddIdentity installs an identity constraint.
func (db *DB) AddIdentity(label, prop string) {
	db.cons.Add(constraint.Identity{Label: label, Prop: prop})
}

// Schema implements engine.SchemaHolder.
func (db *DB) Schema() *model.Schema { return db.schema }

func (db *DB) shardOf(id model.NodeID) *partition {
	h := fnv.New32a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(id) >> (8 * i))
	}
	h.Write(b[:])
	return db.parts[h.Sum32()%uint32(len(db.parts))]
}

// Partitions returns the shard count.
func (db *DB) Partitions() int { return len(db.parts) }

// CrossEdges returns how many edges span two shards.
func (db *DB) CrossEdges() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.crossEdges
}

// --- model.MutableGraph ---

// AddNode implements model.MutableGraph.
func (db *DB) AddNode(label string, props model.Properties) (model.NodeID, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.epoch.Bump()
	defer db.epoch.Bump()
	m := constraint.Mutation{Kind: constraint.AddNode, Node: model.Node{Label: label, Props: props}}
	if err := db.cons.Check(lockedView{db}, m); err != nil {
		return 0, err
	}
	db.nextN++
	id := db.nextN
	db.ver.MarkNode(id)
	db.shardOf(id).nodes[id] = &model.Node{ID: id, Label: label, Props: props.Clone()}
	db.idx.OnNodeWrite(model.Node{ID: id, Label: label, Props: props}, "", nil)
	if db.spill != nil {
		// A failed mirror write must surface: swallowing it would leave the
		// external-memory copy silently behind the working graph.
		if _, err := db.spill.AddNode(label, props); err != nil {
			return 0, err
		}
	}
	return id, nil
}

// AddEdge implements model.MutableGraph.
func (db *DB) AddEdge(label string, from, to model.NodeID, props model.Properties) (model.EdgeID, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.epoch.Bump()
	defer db.epoch.Bump()
	fp, tp := db.shardOf(from), db.shardOf(to)
	if _, ok := fp.nodes[from]; !ok {
		return 0, model.NodeNotFound(from)
	}
	if _, ok := tp.nodes[to]; !ok {
		return 0, model.NodeNotFound(to)
	}
	m := constraint.Mutation{
		Kind:    constraint.AddEdge,
		Edge:    model.Edge{Label: label, From: from, To: to, Props: props},
		FromLbl: fp.nodes[from].Label,
		ToLbl:   tp.nodes[to].Label,
	}
	if err := db.cons.Check(lockedView{db}, m); err != nil {
		return 0, err
	}
	db.nextE++
	id := db.nextE
	db.ver.MarkLink(id, from, to)
	db.edges[id] = &model.Edge{ID: id, Label: label, From: from, To: to, Props: props.Clone()}
	fp.out[from] = append(fp.out[from], id)
	tp.in[to] = append(tp.in[to], id)
	if fp != tp {
		db.crossEdges++
	}
	return id, nil
}

// RemoveNode implements model.MutableGraph.
func (db *DB) RemoveNode(id model.NodeID) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.epoch.Bump()
	defer db.epoch.Bump()
	p := db.shardOf(id)
	n, ok := p.nodes[id]
	if !ok {
		return model.NodeNotFound(id)
	}
	if err := db.cons.Check(lockedView{db}, constraint.Mutation{Kind: constraint.DelNode, Node: *n}); err != nil {
		return err
	}
	for _, eid := range append(append([]model.EdgeID(nil), p.out[id]...), p.in[id]...) {
		db.removeEdgeLocked(eid)
	}
	db.idx.OnNodeDelete(*n)
	db.ver.MarkNode(id)
	delete(p.nodes, id)
	delete(p.out, id)
	delete(p.in, id)
	return nil
}

// RemoveEdge implements model.MutableGraph.
func (db *DB) RemoveEdge(id model.EdgeID) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.epoch.Bump()
	defer db.epoch.Bump()
	if _, ok := db.edges[id]; !ok {
		return model.EdgeNotFound(id)
	}
	db.removeEdgeLocked(id)
	return nil
}

func (db *DB) removeEdgeLocked(id model.EdgeID) {
	e, ok := db.edges[id]
	if !ok {
		return
	}
	db.ver.MarkLink(id, e.From, e.To)
	fp, tp := db.shardOf(e.From), db.shardOf(e.To)
	fp.out[e.From] = removeID(fp.out[e.From], id)
	tp.in[e.To] = removeID(tp.in[e.To], id)
	if fp != tp {
		db.crossEdges--
	}
	delete(db.edges, id)
}

func removeID(s []model.EdgeID, id model.EdgeID) []model.EdgeID {
	for i, v := range s {
		if v == id {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}

// SetNodeProp implements model.MutableGraph.
func (db *DB) SetNodeProp(id model.NodeID, key string, v model.Value) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.epoch.Bump()
	defer db.epoch.Bump()
	n, ok := db.shardOf(id).nodes[id]
	if !ok {
		return model.NodeNotFound(id)
	}
	db.ver.MarkNode(id)
	updated := *n
	updated.Props = n.Props.Clone()
	if updated.Props == nil {
		updated.Props = model.Properties{}
	}
	updated.Props[key] = v
	if err := db.cons.Check(lockedView{db}, constraint.Mutation{Kind: constraint.UpdateNode, Node: updated}); err != nil {
		return err
	}
	old := *n
	n.Props = updated.Props
	db.idx.OnNodeWrite(updated, old.Label, old.Props)
	return nil
}

// SetEdgeProp implements model.MutableGraph.
func (db *DB) SetEdgeProp(id model.EdgeID, key string, v model.Value) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.epoch.Bump()
	defer db.epoch.Bump()
	e, ok := db.edges[id]
	if !ok {
		return model.EdgeNotFound(id)
	}
	db.ver.MarkEdge(id)
	// Copy-on-write: Neighbors/Edges hand out record copies sharing the old
	// map past the read lock, so the map must be replaced, not mutated.
	props := e.Props.Clone()
	if props == nil {
		props = model.Properties{}
	}
	props[key] = v
	e.Props = props
	return nil
}

// --- model.Graph reads (shard-spanning) ---

// lockedView reads the graph while db.mu is already held (constraint checks
// run inside mutations).
type lockedView struct{ db *DB }

func (v lockedView) Order() int { return v.db.orderLocked() }
func (v lockedView) Size() int  { return len(v.db.edges) }
func (v lockedView) Node(id model.NodeID) (model.Node, error) {
	if n, ok := v.db.shardOf(id).nodes[id]; ok {
		return *n, nil
	}
	return model.Node{}, model.NodeNotFound(id)
}
func (v lockedView) Edge(id model.EdgeID) (model.Edge, error) {
	if e, ok := v.db.edges[id]; ok {
		return *e, nil
	}
	return model.Edge{}, model.EdgeNotFound(id)
}
func (v lockedView) Nodes(fn func(model.Node) bool) error {
	for _, p := range v.db.parts {
		for _, n := range p.nodes {
			if !fn(*n) {
				return nil
			}
		}
	}
	return nil
}
func (v lockedView) Edges(fn func(model.Edge) bool) error {
	for _, e := range v.db.edges {
		if !fn(*e) {
			return nil
		}
	}
	return nil
}
func (v lockedView) Neighbors(id model.NodeID, dir model.Direction, fn func(model.Edge, model.Node) bool) error {
	return v.db.neighborsLocked(id, dir, fn)
}
func (v lockedView) Degree(id model.NodeID, dir model.Direction) (int, error) {
	return v.db.degreeLocked(id, dir)
}

func (db *DB) orderLocked() int {
	n := 0
	for _, p := range db.parts {
		n += len(p.nodes)
	}
	return n
}

// Order implements model.Graph.
func (db *DB) Order() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.orderLocked()
}

// Size implements model.Graph.
func (db *DB) Size() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.edges)
}

// Node implements model.Graph.
func (db *DB) Node(id model.NodeID) (model.Node, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return lockedView{db}.Node(id)
}

// Edge implements model.Graph.
func (db *DB) Edge(id model.EdgeID) (model.Edge, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return lockedView{db}.Edge(id)
}

// Nodes implements model.Graph.
func (db *DB) Nodes(fn func(model.Node) bool) error {
	db.mu.RLock()
	var snapshot []model.Node
	err := lockedView{db}.Nodes(func(n model.Node) bool {
		snapshot = append(snapshot, n)
		return true
	})
	db.mu.RUnlock()
	if err != nil {
		return err
	}
	for _, n := range snapshot {
		if !fn(n) {
			return nil
		}
	}
	return nil
}

// Edges implements model.Graph.
func (db *DB) Edges(fn func(model.Edge) bool) error {
	db.mu.RLock()
	var snapshot []model.Edge
	err := lockedView{db}.Edges(func(e model.Edge) bool {
		snapshot = append(snapshot, e)
		return true
	})
	db.mu.RUnlock()
	if err != nil {
		return err
	}
	for _, e := range snapshot {
		if !fn(e) {
			return nil
		}
	}
	return nil
}

func (db *DB) neighborsLocked(id model.NodeID, dir model.Direction, fn func(model.Edge, model.Node) bool) error {
	p := db.shardOf(id)
	if _, ok := p.nodes[id]; !ok {
		return model.NodeNotFound(id)
	}
	emit := func(eids []model.EdgeID, far func(*model.Edge) model.NodeID) bool {
		for _, eid := range eids {
			e := db.edges[eid]
			farN := db.shardOf(far(e)).nodes[far(e)]
			if !fn(*e, *farN) {
				return false
			}
		}
		return true
	}
	if dir == model.Out || dir == model.Both {
		if !emit(p.out[id], func(e *model.Edge) model.NodeID { return e.To }) {
			return nil
		}
	}
	if dir == model.In || dir == model.Both {
		emit(p.in[id], func(e *model.Edge) model.NodeID { return e.From })
	}
	return nil
}

// Neighbors implements model.Graph; traversal spans shards transparently.
func (db *DB) Neighbors(id model.NodeID, dir model.Direction, fn func(model.Edge, model.Node) bool) error {
	db.mu.RLock()
	type pair struct {
		e model.Edge
		n model.Node
	}
	var snapshot []pair
	err := db.neighborsLocked(id, dir, func(e model.Edge, n model.Node) bool {
		snapshot = append(snapshot, pair{e, n})
		return true
	})
	db.mu.RUnlock()
	if err != nil {
		return err
	}
	for _, p := range snapshot {
		if !fn(p.e, p.n) {
			return nil
		}
	}
	return nil
}

func (db *DB) degreeLocked(id model.NodeID, dir model.Direction) (int, error) {
	p := db.shardOf(id)
	if _, ok := p.nodes[id]; !ok {
		return 0, model.NodeNotFound(id)
	}
	switch dir {
	case model.Out:
		return len(p.out[id]), nil
	case model.In:
		return len(p.in[id]), nil
	default:
		return len(p.out[id]) + len(p.in[id]), nil
	}
}

// Degree implements model.Graph.
func (db *DB) Degree(id model.NodeID, dir model.Direction) (int, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.degreeLocked(id, dir)
}

// IndexedNodes implements plan.Source.
func (db *DB) IndexedNodes(label, prop string, v model.Value, fn func(model.Node) bool) (bool, error) {
	var idx index.Index
	var key model.Value
	if prop != "" {
		i, ok := db.idx.Get(index.Nodes, prop)
		if !ok {
			return false, nil
		}
		idx, key = i, v
	} else {
		i, ok := db.idx.Get(index.Nodes, "")
		if !ok || label == "" {
			return false, nil
		}
		idx, key = i, model.Str(label)
	}
	err := idx.Lookup(key, func(raw uint64) bool {
		n, err := db.Node(model.NodeID(raw))
		if err != nil {
			return true
		}
		if label != "" && n.Label != label {
			return true
		}
		return fn(n)
	})
	return true, err
}

// Name implements engine.Engine.
func (db *DB) Name() string { return "infinigraph" }

// SurveyRow implements engine.Engine.
func (db *DB) SurveyRow() string { return "InfiniteGraph" }

// Features implements engine.Engine.
func (db *DB) Features() engine.Features {
	return engine.Features{
		ExternalMemory: engine.Yes, Indexes: engine.Yes,
		API:              engine.Yes,
		AttributedGraphs: engine.Yes,
		NodeLabeled:      engine.Yes, NodeAttributed: engine.Yes,
		Directed: engine.Yes, EdgeLabeled: engine.Yes, EdgeAttributed: engine.Yes,
		SchemaNodeTypes: engine.Yes, SchemaRelationTypes: engine.Yes,
		ObjectNodes: engine.Yes, ValueNodes: engine.Yes,
		ObjectRelations: engine.Yes, SimpleRelations: engine.Yes,
		APIQueryFacility: engine.Yes, Retrieval: engine.Yes,
		TypesChecking: engine.Yes, NodeEdgeIdentity: engine.Yes,
	}
}

// Essentials implements engine.Engine; the kernels run under ctx, so
// deadlines and cancellation reach them.
func (db *DB) Essentials(ctx context.Context) engine.Essentials {
	return engine.Essentials{
		NodeAdjacency: func(a, b model.NodeID) (bool, error) {
			return algo.Adjacent(db, a, b, model.Both)
		},
		EdgeAdjacency: func(e1, e2 model.EdgeID) (bool, error) {
			return algo.EdgesAdjacent(db, e1, e2)
		},
		KNeighborhood: func(n model.NodeID, k int) ([]model.NodeID, error) {
			g, release, err := db.AcquireSnapshot()
			if err != nil {
				return nil, err
			}
			defer release()
			return algo.NeighborhoodCtx(ctx, g, n, k, model.Both)
		},
		FixedLengthPaths: func(from, to model.NodeID, length int) ([]algo.Path, error) {
			return algo.FixedLengthPathsCtx(ctx, db, from, to, length, model.Out, 0)
		},
		ShortestPath: func(from, to model.NodeID) (algo.Path, error) {
			return algo.ShortestPathCtx(ctx, db, from, to, model.Out)
		},
		Summarization: func(kind algo.AggKind, label, prop string) (model.Value, error) {
			g, release, err := db.AcquireSnapshot()
			if err != nil {
				return model.Null(), err
			}
			defer release()
			return algo.AggregateNodePropCtx(ctx, g, label, prop, kind)
		},
	}
}

// AcquireSnapshot implements engine.Concurrent: an immutable copy-on-write
// snapshot of all shards merged, pinned at the current stable epoch. The
// fast path is O(1) — one atomic load and a pin when the store is
// quiescent — and a re-render after mutations re-reads only the records
// they touched, mirroring InfiniteGraph's concurrent distributed traversal
// over stable views.
func (db *DB) AcquireSnapshot() (model.Graph, model.ReleaseFunc, error) {
	if s, rel := db.ver.TryPin(db.epoch.Current()); rel != nil {
		return s, rel, nil
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	s, rel, err := db.ver.Pin(db.epoch.Current(), igSource{db})
	if err != nil {
		return nil, nil, err
	}
	return s, rel, nil
}

// igSource adapts the shard maps to the snapshot builder. Its methods are
// unlocked: Versioned.Pin runs with db.mu read-held (excluding writers),
// so the partitions are quiescent for the whole render.
type igSource struct{ db *DB }

func (s igSource) MaxNodeID() (model.NodeID, error) { return s.db.nextN, nil }
func (s igSource) MaxEdgeID() (model.EdgeID, error) { return s.db.nextE, nil }

func (s igSource) NodeByID(id model.NodeID) (model.Node, bool, error) {
	if n, ok := s.db.shardOf(id).nodes[id]; ok {
		return *n, true, nil
	}
	return model.Node{}, false, nil
}

func (s igSource) EdgeByID(id model.EdgeID) (model.Edge, bool, error) {
	if e, ok := s.db.edges[id]; ok {
		return *e, true, nil
	}
	return model.Edge{}, false, nil
}

func (s igSource) OutEdges(id model.NodeID) ([]model.EdgeID, error) {
	return s.db.shardOf(id).out[id], nil
}

func (s igSource) InEdges(id model.NodeID) ([]model.EdgeID, error) {
	return s.db.shardOf(id).in[id], nil
}

// LoadNode implements engine.Loader, declaring unseen types first.
func (db *DB) LoadNode(label string, props model.Properties) (model.NodeID, error) {
	db.schema.EnsureNodeType(label, props)
	return db.AddNode(label, props)
}

// LoadEdge implements engine.Loader, declaring unseen relation types first.
func (db *DB) LoadEdge(label string, from, to model.NodeID, props model.Properties) (model.EdgeID, error) {
	db.schema.EnsureRelationType(label, props)
	return db.AddEdge(label, from, to, props)
}

// Flush implements engine.Persistent.
func (db *DB) Flush() error {
	if db.disk != nil {
		return db.disk.Flush()
	}
	return nil
}

// Close implements engine.Engine.
func (db *DB) Close() error {
	if db.disk != nil {
		return db.disk.Close()
	}
	return nil
}

var (
	_ engine.Engine       = (*DB)(nil)
	_ engine.CacheStatser = (*DB)(nil)
	_ engine.GraphAPI     = (*DB)(nil)
	_ engine.Loader       = (*DB)(nil)
	_ engine.Concurrent   = (*DB)(nil)
	_ adj.Source          = igSource{}
)
