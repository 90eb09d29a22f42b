// Package gstore implements the G-Store-archetype engine: a basic storage
// manager for large vertex-labeled graphs that lives *only* in external
// memory (its Table I row marks external memory alone) and offers an
// SQL-based query language with special graph instructions. Every
// operation reads through the page-backed store; there is no resident
// in-memory copy of the graph.
package gstore

import (
	"context"
	"fmt"

	"gdbm/internal/engine"
	"gdbm/internal/kvgraph"
	"gdbm/internal/model"
	"gdbm/internal/obs"
	"gdbm/internal/query/gsql"
	"gdbm/internal/query/plan"
)

func init() {
	engine.Register("gstore", "G-Store", func(opts engine.Options) (engine.Engine, error) {
		return New(opts)
	})
}

// DB is the engine instance.
type DB struct {
	engine.Disk
	g      *kvgraph.Graph
	schema *model.Schema
}

// New opens a gstore. Options.Dir is required: the archetype is external-
// memory only. A positive Options.CacheBytes splits the budget between the
// page cache and the statement-result cache.
func New(opts engine.Options) (*DB, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("gstore: the G-Store archetype requires a data directory (external memory only, Table I)")
	}
	d, g, err := engine.OpenDiskWithResults(opts, "gstore.pg")
	if err != nil {
		return nil, err
	}
	return &DB{Disk: d, g: g, schema: model.NewSchema()}, nil
}

// Schema implements engine.SchemaHolder (the DDL surface of its language).
func (db *DB) Schema() *model.Schema { return db.schema }

// Graph returns the disk-backed graph (the API surface).
func (db *DB) Graph() model.MutableGraph { return db.g }

// LanguageName implements engine.Querier.
func (db *DB) LanguageName() string { return "gsql" }

// QueryStream implements engine.Querier: the whole dispatch is a "query"
// span on the trace in ctx, with gsql's "exec" span nested inside on cache
// misses, and SELECTs emit rows into sink as the plan produces them.
// Instances with a result cache memoize read statements (SELECT) at the
// current graph epoch (see engine.CachedStream).
func (db *DB) QueryStream(ctx context.Context, stmt string, sink plan.Sink) error {
	defer obs.FromContext(ctx).StartSpan("query")()
	return engine.CachedStream(db.Disk, db.Name(), "gsql", stmt, engine.ReadOnlyStmt(stmt, "SELECT"), sink,
		func(s plan.Sink) error { return gsql.ExecStreamCtx(ctx, stmt, gsqlSurface{db}, s) })
}

type gsqlSurface struct{ db *DB }

func (s gsqlSurface) Schema() *model.Schema                    { return s.db.schema }
func (s gsqlSurface) Order() int                               { return s.db.g.Order() }
func (s gsqlSurface) Size() int                                { return s.db.g.Size() }
func (s gsqlSurface) Node(id model.NodeID) (model.Node, error) { return s.db.g.Node(id) }
func (s gsqlSurface) Edge(id model.EdgeID) (model.Edge, error) { return s.db.g.Edge(id) }
func (s gsqlSurface) Nodes(fn func(model.Node) bool) error     { return s.db.g.Nodes(fn) }
func (s gsqlSurface) Edges(fn func(model.Edge) bool) error     { return s.db.g.Edges(fn) }
func (s gsqlSurface) Neighbors(id model.NodeID, d model.Direction, fn func(model.Edge, model.Node) bool) error {
	return s.db.g.Neighbors(id, d, fn)
}
func (s gsqlSurface) Degree(id model.NodeID, d model.Direction) (int, error) {
	return s.db.g.Degree(id, d)
}

// AppendNeighborIDs implements model.IDAdjacency from the kvgraph's
// adjacency entries. The surface forwards no stats.Provider: plan statistics
// would render the whole disk graph into memory on the first SELECT.
func (s gsqlSurface) AppendNeighborIDs(buf []model.NeighborID, id model.NodeID, d model.Direction, label string) ([]model.NeighborID, bool, error) {
	return s.db.g.AppendNeighborIDs(buf, id, d, label)
}
func (s gsqlSurface) IndexedNodes(string, string, model.Value, func(model.Node) bool) (bool, error) {
	return false, nil // G-Store's Table I row has no index column mark
}
func (s gsqlSurface) AddNode(label string, props model.Properties) (model.NodeID, error) {
	return s.db.g.AddNode(label, props)
}
func (s gsqlSurface) AddEdge(label string, from, to model.NodeID, props model.Properties) (model.EdgeID, error) {
	return s.db.g.AddEdge(label, from, to, props)
}
func (s gsqlSurface) RemoveNode(id model.NodeID) error { return s.db.g.RemoveNode(id) }
func (s gsqlSurface) RemoveEdge(id model.EdgeID) error { return s.db.g.RemoveEdge(id) }
func (s gsqlSurface) SetNodeProp(id model.NodeID, key string, v model.Value) error {
	return s.db.g.SetNodeProp(id, key, v)
}

// Name implements engine.Engine.
func (db *DB) Name() string { return "gstore" }

// SurveyRow implements engine.Engine.
func (db *DB) SurveyRow() string { return "G-Store" }

// Features implements engine.Engine.
func (db *DB) Features() engine.Features {
	return engine.Features{
		ExternalMemory: engine.Yes,
		DDL:            engine.Yes, API: engine.Yes,
		QueryLanguageShipped: engine.Yes, QueryLanguage: engine.Yes,
		SimpleGraphs: engine.Yes,
		NodeLabeled:  engine.Yes,
		Directed:     engine.Yes, EdgeLabeled: engine.Yes,
		ValueNodes: engine.Yes, SimpleRelations: engine.Yes,
		Retrieval: engine.Yes,
	}
}

// Essentials implements engine.Engine: G-Store's language carries the graph
// instructions (PATH, NEIGHBORS, REACH), so all five composable classes of
// its Table VII row route through the language or its kernels, under ctx;
// k-neighborhood goes through the language itself.
func (db *DB) Essentials(ctx context.Context) engine.Essentials {
	es := engine.TraversalEssentials(ctx, db.g, nil)
	es.KNeighborhood = func(n model.NodeID, k int) ([]model.NodeID, error) {
		res, err := engine.QueryContext(ctx, db, fmt.Sprintf("SELECT NEIGHBORS OF %d DEPTH %d", n, k))
		if err != nil {
			return nil, err
		}
		out := make([]model.NodeID, 0, len(res.Rows))
		for _, r := range res.Rows {
			id, _ := r[0].AsInt()
			out = append(out, model.NodeID(id))
		}
		return out, nil
	}
	return es
}

// LoadNode implements engine.Loader.
func (db *DB) LoadNode(label string, props model.Properties) (model.NodeID, error) {
	return db.g.AddNode(label, props)
}

// LoadEdge implements engine.Loader.
func (db *DB) LoadEdge(label string, from, to model.NodeID, props model.Properties) (model.EdgeID, error) {
	return db.g.AddEdge(label, from, to, props)
}

var (
	_ engine.Engine       = (*DB)(nil)
	_ engine.Querier      = (*DB)(nil)
	_ engine.Loader       = (*DB)(nil)
	_ engine.CacheStatser = (*DB)(nil)
)
