// Package sonesdb implements the Sones-archetype engine: high-level data
// abstraction concepts for graphs (hypergraph + attributed structures) with
// its own SQL-flavoured graph query language covering DDL, DML and querying
// (survey Section II, Tables II/III). Its survey profile: main memory with
// indexes, full database languages plus GUI, identity and cardinality
// constraints.
package sonesdb

import (
	"context"
	"fmt"

	"gdbm/internal/constraint"
	"gdbm/internal/engine"
	"gdbm/internal/engines/propcore"
	"gdbm/internal/index"
	"gdbm/internal/memgraph"
	"gdbm/internal/model"
	"gdbm/internal/obs"
	"gdbm/internal/query/gsql"
	"gdbm/internal/query/plan"
)

func init() {
	engine.Register("sonesdb", "Sones", func(opts engine.Options) (engine.Engine, error) {
		return New(opts)
	})
}

// DB is the engine instance: a binary attributed graph plus a hypergraph
// side-structure for higher-order relations ("walks" and groupings).
type DB struct {
	*propcore.Core
	hyper *propcore.Hyper
}

// New opens a sonesdb instance (main-memory only, per its Table I row).
func New(opts engine.Options) (*DB, error) {
	if opts.Dir != "" {
		return nil, fmt.Errorf("sonesdb: the Sones archetype is main-memory only (Table I)")
	}
	db := &DB{
		Core:  propcore.New(memgraph.New()),
		hyper: propcore.NewHyper(propcore.New(memgraph.New())),
	}
	if _, err := db.Core.Idx.Create(index.Nodes, "", index.KindHash); err != nil {
		return nil, err
	}
	return db, nil
}

// AddIdentity installs an identity constraint.
func (db *DB) AddIdentity(label, prop string) {
	db.Core.Cons.Add(constraint.Identity{Label: label, Prop: prop})
}

// AddCardinality bounds outgoing edges with the label per node.
func (db *DB) AddCardinality(edgeLabel string, max int) {
	db.Core.Cons.Add(constraint.Cardinality{EdgeLabel: edgeLabel, Max: max})
}

// AddGrouping creates a hyperedge grouping the member nodes — Sones'
// "complex relation" (Table IV).
func (db *DB) AddGrouping(label string, members []model.NodeID, props model.Properties) (model.EdgeID, error) {
	for _, m := range members {
		if _, err := db.Core.Node(m); err != nil {
			return 0, err
		}
	}
	// Mirror the members into the hypergraph structure.
	idmap := make([]model.NodeID, len(members))
	for i, m := range members {
		n, _ := db.Core.Node(m)
		hid, err := db.hyper.AddNode(n.Label, model.Properties{"ref": model.Int(int64(m))})
		if err != nil {
			return 0, err
		}
		idmap[i] = hid
	}
	return db.hyper.AddHyperEdge(label, idmap, props)
}

// Groupings returns the number of hyperedge groupings.
func (db *DB) Groupings() int { return db.hyper.Size() }

// LanguageName implements engine.Querier.
func (db *DB) LanguageName() string { return "gsql" }

// QueryStream implements engine.Querier with the SQL-flavoured graph
// language: the whole dispatch is a "query" span on the trace in ctx, with
// gsql's "exec" span nested inside, and SELECTs emit rows into sink as the
// plan produces them.
func (db *DB) QueryStream(ctx context.Context, stmt string, sink plan.Sink) error {
	defer obs.FromContext(ctx).StartSpan("query")()
	return gsql.ExecStreamCtx(ctx, stmt, gsqlSurface{db}, sink)
}

// gsqlSurface adapts DB to gsql.Engine.
type gsqlSurface struct{ db *DB }

func (s gsqlSurface) Schema() *model.Schema                    { return s.db.Core.Sch }
func (s gsqlSurface) Order() int                               { return s.db.Core.Order() }
func (s gsqlSurface) Size() int                                { return s.db.Core.Size() }
func (s gsqlSurface) Node(id model.NodeID) (model.Node, error) { return s.db.Core.Node(id) }
func (s gsqlSurface) Edge(id model.EdgeID) (model.Edge, error) { return s.db.Core.Edge(id) }
func (s gsqlSurface) Nodes(fn func(model.Node) bool) error     { return s.db.Core.Nodes(fn) }
func (s gsqlSurface) Edges(fn func(model.Edge) bool) error     { return s.db.Core.Edges(fn) }
func (s gsqlSurface) Neighbors(id model.NodeID, d model.Direction, fn func(model.Edge, model.Node) bool) error {
	return s.db.Core.Neighbors(id, d, fn)
}
func (s gsqlSurface) Degree(id model.NodeID, d model.Direction) (int, error) {
	return s.db.Core.Degree(id, d)
}

// AppendNeighborIDs implements model.IDAdjacency by forwarding to the core.
func (s gsqlSurface) AppendNeighborIDs(buf []model.NeighborID, id model.NodeID, d model.Direction, label string) ([]model.NeighborID, bool, error) {
	return s.db.Core.AppendNeighborIDs(buf, id, d, label)
}
func (s gsqlSurface) IndexedNodes(label, prop string, v model.Value, fn func(model.Node) bool) (bool, error) {
	return s.db.Core.IndexedNodes(label, prop, v, fn)
}
func (s gsqlSurface) AddNode(label string, props model.Properties) (model.NodeID, error) {
	return s.db.Core.AddNode(label, props)
}
func (s gsqlSurface) AddEdge(label string, from, to model.NodeID, props model.Properties) (model.EdgeID, error) {
	return s.db.Core.AddEdge(label, from, to, props)
}
func (s gsqlSurface) RemoveNode(id model.NodeID) error { return s.db.Core.RemoveNode(id) }
func (s gsqlSurface) RemoveEdge(id model.EdgeID) error { return s.db.Core.RemoveEdge(id) }
func (s gsqlSurface) SetNodeProp(id model.NodeID, key string, v model.Value) error {
	return s.db.Core.SetNodeProp(id, key, v)
}

// Name implements engine.Engine.
func (db *DB) Name() string { return "sonesdb" }

// SurveyRow implements engine.Engine.
func (db *DB) SurveyRow() string { return "Sones" }

// Features implements engine.Engine.
func (db *DB) Features() engine.Features {
	return engine.Features{
		MainMemory: engine.Yes, Indexes: engine.Yes,
		DDL: engine.Yes, DML: engine.Yes,
		QueryLanguageShipped: engine.Yes, QueryLanguage: engine.Yes,
		API: engine.Yes, GUI: engine.Yes, GraphicalQL: engine.Yes,
		Hypergraphs: engine.Yes, AttributedGraphs: engine.Yes,
		NodeLabeled: engine.Yes, NodeAttributed: engine.Yes,
		Directed: engine.Yes, EdgeLabeled: engine.Yes, EdgeAttributed: engine.Yes,
		ValueNodes: engine.Yes, SimpleRelations: engine.Yes, ComplexRelations: engine.Yes,
		Retrieval: engine.Yes, Analysis: engine.Yes,
		NodeEdgeIdentity: engine.Yes, CardinalityChecking: engine.Yes,
	}
}

// Essentials implements engine.Engine: per the Table VII row, the Sones
// surface composes node/edge adjacency and summarization only; the
// summarization kernel runs under ctx.
func (db *DB) Essentials(ctx context.Context) engine.Essentials {
	es := engine.TraversalEssentials(ctx, db.Core, nil)
	es.KNeighborhood, es.FixedLengthPaths, es.ShortestPath = nil, nil, nil
	return es
}

// Close implements engine.Engine.
func (db *DB) Close() error { return nil }

var (
	_ engine.Engine       = (*DB)(nil)
	_ engine.GraphAPI     = (*DB)(nil)
	_ engine.Querier      = (*DB)(nil)
	_ engine.SchemaHolder = (*DB)(nil)
	_ engine.Loader       = (*DB)(nil)
)
