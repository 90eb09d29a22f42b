// Package bitmapdb implements the DEX-archetype engine: a library for
// persistent and temporary graph management whose implementation is based
// on bitmaps and secondary structures (survey Section II). Its survey
// profile: main + external memory, indexes, API only (no query language),
// attributed directed graphs with a typed schema, and types/identity/
// referential integrity constraints (Table VI).
package bitmapdb

import (
	"context"
	"path/filepath"

	"gdbm/internal/adj"
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
	engine.Register("bitmapdb", "DEX", func(opts engine.Options) (engine.Engine, error) {
		return New(opts)
	})
}

// DB is the engine instance.
type DB struct {
	*propcore.Core
	labels  *index.Bitmap
	disk    *kv.Disk
	kg      *kvgraph.Graph // non-nil in the disk-backed configuration
	results *cache.Results // nil when CacheBytes is zero or main-memory
}

// New opens a bitmapdb instance. Label and property lookups run through
// bitmap indexes — the structure DEX is named for here. A positive
// Options.CacheBytes splits the budget across the page, adjacency and
// query-result caches (disk-backed configuration only).
func New(opts engine.Options) (*DB, error) {
	db := &DB{}
	if opts.Dir != "" {
		pageB, adjB, resB := engine.SplitCacheBudget(opts.CacheBytes)
		d, err := kv.OpenDiskWith(filepath.Join(opts.Dir, "bitmapdb.pg"), kv.DiskOptions{
			PoolPages: opts.PoolPages, CacheBytes: pageB, FS: opts.FS, Metrics: opts.Metrics,
		})
		if err != nil {
			return nil, err
		}
		db.disk = d
		db.kg = kvgraph.New(d)
		db.kg.SetMetrics(opts.Metrics)
		if adjB > 0 {
			db.kg.EnableAdjacencyCache(adjB)
		}
		if resB > 0 {
			db.results = cache.NewResults(resB)
		}
		// DEX's snapshots use the bitmap directory variant — the
		// compressed-bitmap organization the archetype is named for.
		db.kg.SetViewLayout(adj.LayoutBitmap)
		db.Core = propcore.New(db.kg)
	} else {
		mg := memgraph.New()
		mg.SetViewLayout(adj.LayoutBitmap)
		db.Core = propcore.New(mg)
	}
	lbl := index.NewBitmap()
	db.labels = lbl
	if err := db.Core.Idx.Register(index.Nodes, "", lbl); err != nil {
		return nil, err
	}
	if db.disk != nil {
		if err := db.Core.IndexStoredNodes(); err != nil {
			db.disk.Close()
			return nil, err
		}
	}
	// DEX-profile constraints: types checking + identity (per-type "name")
	// + referential integrity.
	db.Core.Cons.Add(constraint.Types{Schema: db.Core.Sch})
	db.Core.Cons.Add(constraint.Referential{})
	return db, nil
}

// AddIdentity installs a node/edge identity constraint: prop uniquely
// identifies nodes of the given label.
func (db *DB) AddIdentity(label, prop string) {
	db.Core.Cons.Add(constraint.Identity{Label: label, Prop: prop})
}

// CreateIndex adds a bitmap index on a node property.
func (db *DB) CreateIndex(prop string) error {
	idx, err := db.Core.Idx.Create(index.Nodes, prop, index.KindBitmap)
	if err != nil {
		return err
	}
	return db.Nodes(func(n model.Node) bool {
		if v, ok := n.Props[prop]; ok {
			idx.Add(v, uint64(n.ID))
		}
		return true
	})
}

// LabelSet exposes the bitmap algebra over node labels — the capability
// DEX's bitmap design exists for (used by the ablation benches).
func (db *DB) LabelSet(label string) *index.Bitset {
	return db.labels.Set(model.Str(label))
}

// LoadNode implements engine.Loader. The DEX archetype is typed, so the
// loader declares unseen labels as open node types before inserting —
// mirroring DEX's explicit type creation step.
func (db *DB) LoadNode(label string, props model.Properties) (model.NodeID, error) {
	db.Core.Sch.EnsureNodeType(label, props)
	return db.Core.AddNode(label, props)
}

// LoadEdge implements engine.Loader, declaring unseen relation types.
func (db *DB) LoadEdge(label string, from, to model.NodeID, props model.Properties) (model.EdgeID, error) {
	db.Core.Sch.EnsureRelationType(label, props)
	return db.Core.AddEdge(label, from, to, props)
}

// Name implements engine.Engine.
func (db *DB) Name() string { return "bitmapdb" }

// SurveyRow implements engine.Engine.
func (db *DB) SurveyRow() string { return "DEX" }

// Features implements engine.Engine.
func (db *DB) Features() engine.Features {
	return engine.Features{
		MainMemory: engine.Yes, ExternalMemory: engine.Yes, Indexes: engine.Yes,
		API:              engine.Yes,
		AttributedGraphs: engine.Yes,
		NodeLabeled:      engine.Yes, NodeAttributed: engine.Yes,
		Directed: engine.Yes, EdgeLabeled: engine.Yes, EdgeAttributed: engine.Yes,
		SchemaNodeTypes: engine.Yes, SchemaRelationTypes: engine.Yes,
		ObjectNodes: engine.Yes, ValueNodes: engine.Yes,
		ObjectRelations: engine.Yes, SimpleRelations: engine.Yes,
		APIQueryFacility: engine.Yes, Retrieval: engine.Yes, Analysis: engine.Yes,
		TypesChecking: engine.Yes, NodeEdgeIdentity: engine.Yes, ReferentialIntegrity: engine.Yes,
	}
}

// CacheStats implements engine.CacheStatser; main-memory instances report
// no tiers.
func (db *DB) CacheStats() map[string]cache.Stats {
	out := map[string]cache.Stats{}
	if db.disk != nil {
		out["page"] = db.disk.CacheStats()
	}
	if db.kg != nil {
		if s, ok := db.kg.AdjacencyStats(); ok {
			out["adjacency"] = s
		}
	}
	if db.results != nil {
		out["results"] = db.results.Stats()
	}
	return out
}

// Essentials implements engine.Engine: DEX's API composes every essential
// query class except regular simple paths and pattern matching. The kernels
// run under ctx.
func (db *DB) Essentials(ctx context.Context) engine.Essentials {
	es := engine.Essentials{
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
	if db.results == nil {
		return es
	}
	return engine.CachedEssentials(db.Name(), es, db.results, db.kg.Epoch)
}

// AcquireSnapshot implements engine.Concurrent over the store's
// copy-on-write views (bitmap directory layout), in both configurations.
func (db *DB) AcquireSnapshot() (model.Graph, model.ReleaseFunc, error) {
	return db.Core.AcquireView()
}

// Flush implements engine.Persistent for disk-backed instances.
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
	_ engine.GraphAPI     = (*DB)(nil)
	_ engine.SchemaHolder = (*DB)(nil)
	_ engine.Loader       = (*DB)(nil)
	_ engine.CacheStatser = (*DB)(nil)
	_ engine.Concurrent   = (*DB)(nil)
)
