// Package neograph implements the Neo4j-archetype engine: a network-
// oriented model where relations are first-class objects, an object-
// oriented API, a native disk-based storage manager and a traversal
// framework (survey Section II). Its survey profile: main + external
// memory, indexes, API plus a partial query language (the Cypher-like gql),
// attributed directed graphs, object/value nodes and object/simple
// relations, no schema and no integrity constraints.
package neograph

import (
	"context"
	"fmt"
	"path/filepath"

	"gdbm/internal/algo"
	"gdbm/internal/cache"
	"gdbm/internal/engine"
	"gdbm/internal/engines/propcore"
	"gdbm/internal/index"
	"gdbm/internal/kvgraph"
	"gdbm/internal/memgraph"
	"gdbm/internal/model"
	"gdbm/internal/obs"
	"gdbm/internal/query/gql"
	"gdbm/internal/query/plan"
	"gdbm/internal/storage/kv"
	"gdbm/internal/storage/tx"
)

func init() {
	engine.Register("neograph", "Neo4j", func(opts engine.Options) (engine.Engine, error) {
		return New(opts)
	})
}

// DB is the engine instance.
type DB struct {
	*propcore.Core
	disk    *kv.Disk
	kg      *kvgraph.Graph // non-nil in the disk-backed configuration
	results *cache.Results // nil when CacheBytes is zero or main-memory
}

// New opens a neograph instance. With Options.Dir set, data lives in a
// disk-backed store (the "native disk-based storage manager"); otherwise in
// main memory. A positive Options.CacheBytes splits the budget across the
// page, adjacency and query-result caches; the latter two need the
// kv-layered graph's epoch, so they apply to disk-backed instances only.
func New(opts engine.Options) (*DB, error) {
	db := &DB{}
	if opts.Dir != "" {
		pageB, adjB, resB := engine.SplitCacheBudget(opts.CacheBytes)
		d, err := kv.OpenDiskWith(filepath.Join(opts.Dir, "neograph.pg"), kv.DiskOptions{
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
		db.Core = propcore.New(db.kg)
	} else {
		db.Core = propcore.New(memgraph.New())
	}
	// Label index is always on; property indexes are created on demand.
	if _, err := db.Core.Idx.Create(index.Nodes, "", index.KindHash); err != nil {
		return nil, err
	}
	if db.disk != nil {
		if err := db.Core.IndexStoredNodes(); err != nil {
			db.disk.Close()
			return nil, err
		}
	}
	return db, nil
}

// Schema shadows the schema surface promoted from the embedded
// *propcore.Core. The Neo4j archetype is schema-free — Table II blanks its
// DDL column and Table IV blanks every schema row — so DB must not satisfy
// engine.SchemaHolder; without this shadow the embedding would leak a
// capability the survey forbids (caught by the capability conformance
// test, TestImplementedWithinAllowed). The substrate schema stays reachable
// as db.Core.Schema() for package-internal use.
func (db *DB) Schema() {}

// CreateIndex adds a hash index on a node property.
func (db *DB) CreateIndex(prop string) error {
	idx, err := db.Core.Idx.Create(index.Nodes, prop, index.KindHash)
	if err != nil {
		return err
	}
	// Backfill.
	return db.Nodes(func(n model.Node) bool {
		if v, ok := n.Props[prop]; ok {
			idx.Add(v, uint64(n.ID))
		}
		return true
	})
}

// Name implements engine.Engine.
func (db *DB) Name() string { return "neograph" }

// SurveyRow implements engine.Engine.
func (db *DB) SurveyRow() string { return "Neo4j" }

// Features implements engine.Engine.
func (db *DB) Features() engine.Features {
	return engine.Features{
		MainMemory: engine.Yes, ExternalMemory: engine.Yes, Indexes: engine.Yes,
		API: engine.Yes, QueryLanguage: engine.Partial,
		AttributedGraphs: engine.Yes,
		NodeLabeled:      engine.Yes, NodeAttributed: engine.Yes,
		Directed: engine.Yes, EdgeLabeled: engine.Yes, EdgeAttributed: engine.Yes,
		ObjectNodes: engine.Yes, ValueNodes: engine.Yes,
		ObjectRelations: engine.Yes, SimpleRelations: engine.Yes,
		APIQueryFacility: engine.Yes, Retrieval: engine.Yes,
	}
}

// LanguageName implements engine.Querier.
func (db *DB) LanguageName() string { return "gql" }

// QueryStream implements engine.Querier with the Cypher-like language: the
// whole dispatch is a "query" span on the trace in ctx, with gql's
// "parse"/"exec" spans nested inside on cache misses, and read statements
// emit rows into sink as the plan produces them. On disk-backed instances
// with a cache budget, read statements (MATCH) are memoized at the current
// graph epoch (materialize or hit, then replay), so streaming never
// bypasses cache coherence; the rows are identical either way.
func (db *DB) QueryStream(ctx context.Context, stmt string, sink plan.Sink) error {
	defer obs.FromContext(ctx).StartSpan("query")()
	if db.results == nil || !engine.ReadOnlyStmt(stmt, "MATCH") {
		return gql.ExecStreamCtx(ctx, stmt, db.Core, sink)
	}
	res, err := engine.CachedQuery(db.results, db.kg.Epoch, db.Name(), "gql", stmt,
		func() (*plan.Result, error) { return gql.ExecCtx(ctx, stmt, db.Core) })
	if err != nil {
		return err
	}
	return plan.Replay(res, sink)
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

// Essentials implements engine.Engine: the Neo4j archetype's traversal
// framework composes adjacency, neighborhoods, fixed-length and shortest
// paths, and summarization. The kernels run under ctx.
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
// copy-on-write views, in both configurations.
func (db *DB) AcquireSnapshot() (model.Graph, model.ReleaseFunc, error) {
	return db.Core.AcquireView()
}

// Update implements engine.Transactional for main-memory instances: fn's
// mutations apply atomically — on error every change is rolled back via a
// snapshot. All writes must go through Update while a transaction runs
// (single-writer discipline, enforced by the transaction manager's lock).
// Disk-backed instances refuse: their durability path has no snapshot.
func (db *DB) Update(fn func() error) error {
	mg, ok := db.Core.Graph().(*memgraph.Graph)
	if !ok {
		return fmt.Errorf("neograph: transactions require the main-memory configuration")
	}
	return db.Core.TM.Update(func(*tx.Tx) error {
		snap := mg.Snapshot()
		if err := fn(); err != nil {
			mg.RestoreFrom(snap)
			return err
		}
		return nil
	})
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
	_ engine.Querier      = (*DB)(nil)
	_ engine.Concurrent   = (*DB)(nil)
	_ engine.Loader       = (*DB)(nil)
	_ engine.CacheStatser = (*DB)(nil)
)
