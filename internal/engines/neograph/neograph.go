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
	"errors"
	"fmt"

	"gdbm/internal/engine"
	"gdbm/internal/engines/propcore"
	"gdbm/internal/index"
	"gdbm/internal/memgraph"
	"gdbm/internal/model"
	"gdbm/internal/obs"
	"gdbm/internal/query/gql"
	"gdbm/internal/query/plan"
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
	engine.Disk
}

// New opens a neograph instance. With Options.Dir set, data lives in a
// disk-backed store (the "native disk-based storage manager"); otherwise in
// main memory. A positive Options.CacheBytes splits the budget between the
// page cache and the statement-result cache; both apply to disk-backed
// instances only, the latter because it keys on the kv-layered graph's
// epoch.
func New(opts engine.Options) (*DB, error) {
	db := &DB{}
	if opts.Dir != "" {
		d, kg, err := engine.OpenDiskWithResults(opts, "neograph.pg")
		if err != nil {
			return nil, err
		}
		db.Disk, db.Core = d, propcore.New(kg)
	} else {
		db.Core = propcore.New(memgraph.New())
	}
	// Label index is always on; property indexes are created on demand.
	if _, err := db.Core.Idx.Create(index.Nodes, "", index.KindHash); err != nil {
		db.Close()
		return nil, err
	}
	if err := db.Core.IndexStoredNodes(); err != nil {
		db.Close()
		return nil, err
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
// graph epoch (see engine.CachedStream).
func (db *DB) QueryStream(ctx context.Context, stmt string, sink plan.Sink) error {
	defer obs.FromContext(ctx).StartSpan("query")()
	return engine.CachedStream(db.Disk, db.Name(), "gql", stmt, engine.ReadOnlyStmt(stmt, "MATCH"), sink,
		func(s plan.Sink) error { return gql.ExecStreamCtx(ctx, stmt, db.Core, s) })
}

// Essentials implements engine.Engine: the Neo4j archetype's traversal
// framework composes adjacency, neighborhoods, fixed-length and shortest
// paths, and summarization. The kernels run under ctx.
func (db *DB) Essentials(ctx context.Context) engine.Essentials {
	return engine.TraversalEssentials(ctx, db.Core, db.AcquireSnapshot)
}

// AcquireSnapshot implements engine.Concurrent over the store's
// copy-on-write views, in both configurations.
func (db *DB) AcquireSnapshot() (model.Graph, model.ReleaseFunc, error) {
	return db.Core.AcquireView()
}

// Update implements engine.Transactional for main-memory instances: fn's
// mutations apply atomically — on error every change is rolled back via a
// snapshot, and the indexes are rebuilt from the restored graph. All
// writes must go through Update while a transaction runs (single-writer
// discipline, enforced by the transaction manager's lock).
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
			if rerr := db.Core.Idx.Rebuild(mg); rerr != nil {
				return errors.Join(err, rerr)
			}
			return err
		}
		return nil
	})
}

var (
	_ engine.Engine       = (*DB)(nil)
	_ engine.GraphAPI     = (*DB)(nil)
	_ engine.Querier      = (*DB)(nil)
	_ engine.Concurrent   = (*DB)(nil)
	_ engine.Loader       = (*DB)(nil)
	_ engine.CacheStatser = (*DB)(nil)
)
