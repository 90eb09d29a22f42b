// Package vertexkv implements the VertexDB-archetype engine: a graph store
// on top of a B-tree key/value disk store (the survey names TokyoCabinet;
// here the role is played by this repository's own on-disk B+tree). Its
// Table I row marks external memory + backend storage; the surface is API
// only.
package vertexkv

import (
	"context"

	"gdbm/internal/engine"
	"gdbm/internal/kvgraph"
	"gdbm/internal/model"
	"gdbm/internal/storage/kv"
)

func init() {
	engine.Register("vertexkv", "VertexDB", func(opts engine.Options) (engine.Engine, error) {
		return New(opts)
	})
}

// DB is the engine instance. The kv-layered graph is embedded, so the
// engine itself is the API surface (engine.GraphAPI).
type DB struct {
	*kvgraph.Graph
	engine.Disk
}

// New opens a vertexkv instance. With no Dir the B-tree role is played by
// the in-memory ordered store (useful for tests); with Dir it is the real
// on-disk B+tree, whose page cache Options.CacheBytes funds.
func New(opts engine.Options) (*DB, error) {
	if opts.Dir == "" {
		g := kvgraph.New(kv.NewMemory())
		g.SetMetrics(opts.Metrics)
		return &DB{Graph: g}, nil
	}
	d, g, err := engine.OpenDisk(opts, "vertexkv.pg")
	if err != nil {
		return nil, err
	}
	return &DB{Graph: g, Disk: d}, nil
}

// IndexedNodes implements plan.Source: the VertexDB archetype has no
// secondary indexes (Table I), so lookups always fall back to scans.
func (db *DB) IndexedNodes(string, string, model.Value, func(model.Node) bool) (bool, error) {
	return false, nil
}

// Name implements engine.Engine.
func (db *DB) Name() string { return "vertexkv" }

// SurveyRow implements engine.Engine.
func (db *DB) SurveyRow() string { return "VertexDB" }

// Features implements engine.Engine.
func (db *DB) Features() engine.Features {
	return engine.Features{
		ExternalMemory: engine.Yes, BackendStorage: engine.Yes,
		API:          engine.Yes,
		SimpleGraphs: engine.Yes,
		NodeLabeled:  engine.Yes,
		Directed:     engine.Yes, EdgeLabeled: engine.Yes,
		ValueNodes: engine.Yes, SimpleRelations: engine.Yes,
		APIQueryFacility: engine.Yes, Retrieval: engine.Yes,
	}
}

// Essentials implements engine.Engine: adjacency, k-neighborhood,
// fixed-length paths and summarization (no shortest-path utility) per its
// Table VII row, over the live store. The kernels run under ctx.
func (db *DB) Essentials(ctx context.Context) engine.Essentials {
	es := engine.TraversalEssentials(ctx, db.Graph, nil)
	es.ShortestPath = nil
	return es
}

// LoadNode implements engine.Loader.
func (db *DB) LoadNode(label string, props model.Properties) (model.NodeID, error) {
	return db.Graph.AddNode(label, props)
}

// LoadEdge implements engine.Loader.
func (db *DB) LoadEdge(label string, from, to model.NodeID, props model.Properties) (model.EdgeID, error) {
	return db.Graph.AddEdge(label, from, to, props)
}

var (
	_ engine.Engine       = (*DB)(nil)
	_ engine.Loader       = (*DB)(nil)
	_ engine.GraphAPI     = (*DB)(nil)
	_ engine.CacheStatser = (*DB)(nil)
)
