// Package infinigraph implements the InfiniteGraph-archetype engine: a
// database oriented to large-scale graphs in a *distributed* environment,
// aiming at efficient traversal of relations across massive and distributed
// stores (survey Section II). The graph lives in the shared property-graph
// core, in main memory or, with Options.Dir set, in the kv-backed store;
// distribution is simulated as placement: every node id hashes onto one of
// a fixed number of shards, edges may cross shards, and every traversal
// spans them transparently.
package infinigraph

import (
	"context"
	"encoding/binary"
	"hash/fnv"

	"gdbm/internal/constraint"
	"gdbm/internal/engine"
	"gdbm/internal/engines/propcore"
	"gdbm/internal/index"
	"gdbm/internal/memgraph"
	"gdbm/internal/model"
)

func init() {
	engine.Register("infinigraph", "InfiniteGraph", func(opts engine.Options) (engine.Engine, error) {
		return New(opts)
	})
}

// shards is the number of simulated partitions node ids are placed on.
const shards = 4

// shardOf places a node id on a shard.
func shardOf(id model.NodeID) int {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(id))
	h := fnv.New32a()
	h.Write(b[:])
	return int(h.Sum32() % shards)
}

// DB is the engine instance.
type DB struct {
	*propcore.Core
	engine.Disk
}

// New opens an infinigraph instance, in main memory or, with Options.Dir
// set, over a kv-backed store whose page cache CacheBytes funds.
func New(opts engine.Options) (*DB, error) {
	db := &DB{}
	if opts.Dir != "" {
		d, kg, err := engine.OpenDisk(opts, "infinigraph.pg")
		if err != nil {
			return nil, err
		}
		db.Disk, db.Core = d, propcore.New(kg)
	} else {
		db.Core = propcore.New(memgraph.New())
	}
	if _, err := db.Core.Idx.Create(index.Nodes, "", index.KindHash); err != nil {
		db.Close()
		return nil, err
	}
	if err := db.Core.IndexStoredNodes(); err != nil {
		db.Close()
		return nil, err
	}
	db.Core.Cons.Add(constraint.Types{Schema: db.Core.Sch})
	return db, nil
}

// Partitions returns the shard count.
func (db *DB) Partitions() int { return shards }

// CrossEdges counts the edges whose endpoints are placed on different
// shards.
func (db *DB) CrossEdges() (int, error) {
	n := 0
	err := db.Core.Edges(func(e model.Edge) bool {
		if shardOf(e.From) != shardOf(e.To) {
			n++
		}
		return true
	})
	return n, err
}

// AddIdentity installs an identity constraint.
func (db *DB) AddIdentity(label, prop string) {
	db.Core.Cons.Add(constraint.Identity{Label: label, Prop: prop})
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
	return engine.TraversalEssentials(ctx, db.Core, db.AcquireSnapshot)
}

// AcquireSnapshot implements engine.Concurrent over the store's
// copy-on-write views, in both configurations: InfiniteGraph's concurrent
// traversal over stable views.
func (db *DB) AcquireSnapshot() (model.Graph, model.ReleaseFunc, error) {
	return db.Core.AcquireView()
}

// LoadNode implements engine.Loader, declaring unseen types first.
func (db *DB) LoadNode(label string, props model.Properties) (model.NodeID, error) {
	db.Core.Sch.EnsureNodeType(label, props)
	return db.Core.AddNode(label, props)
}

// LoadEdge implements engine.Loader, declaring unseen relation types first.
func (db *DB) LoadEdge(label string, from, to model.NodeID, props model.Properties) (model.EdgeID, error) {
	db.Core.Sch.EnsureRelationType(label, props)
	return db.Core.AddEdge(label, from, to, props)
}

var (
	_ engine.Engine       = (*DB)(nil)
	_ engine.CacheStatser = (*DB)(nil)
	_ engine.GraphAPI     = (*DB)(nil)
	_ engine.SchemaHolder = (*DB)(nil)
	_ engine.Loader       = (*DB)(nil)
	_ engine.Concurrent   = (*DB)(nil)
)
