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
	"path/filepath"

	"gdbm/internal/algo"
	"gdbm/internal/cache"
	"gdbm/internal/constraint"
	"gdbm/internal/engine"
	"gdbm/internal/engines/propcore"
	"gdbm/internal/index"
	"gdbm/internal/kvgraph"
	"gdbm/internal/memgraph"
	"gdbm/internal/model"
	"gdbm/internal/storage/kv"
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
	disk *kv.Disk // non-nil in the disk-backed configuration
}

// New opens an infinigraph instance, in main memory or, with Options.Dir
// set, over a kv-backed store whose page cache CacheBytes funds alone.
func New(opts engine.Options) (*DB, error) {
	db := &DB{}
	if opts.Dir != "" {
		d, err := kv.OpenDiskWith(filepath.Join(opts.Dir, "infinigraph.pg"), kv.DiskOptions{
			PoolPages: opts.PoolPages, CacheBytes: opts.CacheBytes, FS: opts.FS, Metrics: opts.Metrics,
		})
		if err != nil {
			return nil, err
		}
		db.disk = d
		kg := kvgraph.New(d)
		kg.SetMetrics(opts.Metrics)
		db.Core = propcore.New(kg)
	} else {
		db.Core = propcore.New(memgraph.New())
	}
	if _, err := db.Core.Idx.Create(index.Nodes, "", index.KindHash); err != nil {
		db.Close()
		return nil, err
	}
	if db.disk != nil {
		if err := db.Core.IndexStoredNodes(); err != nil {
			db.disk.Close()
			return nil, err
		}
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
	return engine.Essentials{
		NodeAdjacency: func(a, b model.NodeID) (bool, error) {
			return algo.Adjacent(db.Core, a, b, model.Both)
		},
		EdgeAdjacency: func(e1, e2 model.EdgeID) (bool, error) {
			return algo.EdgesAdjacent(db.Core, e1, e2)
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
			return algo.FixedLengthPathsCtx(ctx, db.Core, from, to, length, model.Out, 0)
		},
		ShortestPath: func(from, to model.NodeID) (algo.Path, error) {
			return algo.ShortestPathCtx(ctx, db.Core, from, to, model.Out)
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
	_ engine.SchemaHolder = (*DB)(nil)
	_ engine.Loader       = (*DB)(nil)
	_ engine.Concurrent   = (*DB)(nil)
)
