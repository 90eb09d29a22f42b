// Package filamentdb implements the Filament-archetype engine: a graph
// storage library with default support for a relational backend (survey
// Section II). Its Table I row marks main memory + backend storage and no
// indexes: a main-memory working graph persists through a kv backend that
// stands in for Filament's SQL/JDBC store.
package filamentdb

import (
	"context"

	"gdbm/internal/engine"
	"gdbm/internal/kvgraph"
	"gdbm/internal/model"
	"gdbm/internal/storage/kv"
)

func init() {
	engine.Register("filamentdb", "Filament", func(opts engine.Options) (engine.Engine, error) {
		return New(opts)
	})
}

// DB is the engine instance: a kvgraph over the in-memory store, or over
// the disk store (the relational-backend stand-in) when Dir is set. The
// graph is embedded: the engine is its own API surface.
type DB struct {
	*kvgraph.Graph
	engine.Disk
}

// New opens a filamentdb instance. Options.CacheBytes funds the page cache
// of the disk store.
func New(opts engine.Options) (*DB, error) {
	if opts.Dir == "" {
		g := kvgraph.New(kv.NewMemory())
		g.SetMetrics(opts.Metrics)
		return &DB{Graph: g}, nil
	}
	d, g, err := engine.OpenDisk(opts, "filament.pg")
	if err != nil {
		return nil, err
	}
	return &DB{Graph: g, Disk: d}, nil
}

// IndexedNodes implements plan.Source: Filament's Table I row has no index
// mark, so lookups always scan.
func (db *DB) IndexedNodes(string, string, model.Value, func(model.Node) bool) (bool, error) {
	return false, nil
}

// Name implements engine.Engine.
func (db *DB) Name() string { return "filamentdb" }

// SurveyRow implements engine.Engine.
func (db *DB) SurveyRow() string { return "Filament" }

// Features implements engine.Engine.
func (db *DB) Features() engine.Features {
	return engine.Features{
		MainMemory: engine.Yes, BackendStorage: engine.Yes,
		API:          engine.Yes,
		SimpleGraphs: engine.Yes,
		NodeLabeled:  engine.Yes,
		Directed:     engine.Yes, EdgeLabeled: engine.Yes,
		ValueNodes: engine.Yes, SimpleRelations: engine.Yes,
		APIQueryFacility: engine.Yes, Retrieval: engine.Yes,
	}
}

// Essentials implements engine.Engine: adjacency, k-neighborhood and
// summarization per its Table VII row, over the live store. The kernels
// run under ctx.
func (db *DB) Essentials(ctx context.Context) engine.Essentials {
	es := engine.TraversalEssentials(ctx, db.Graph, nil)
	es.FixedLengthPaths, es.ShortestPath = nil, nil
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
