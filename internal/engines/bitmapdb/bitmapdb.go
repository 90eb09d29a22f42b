// Package bitmapdb implements the DEX-archetype engine: a library for
// persistent and temporary graph management whose implementation is based
// on bitmaps and secondary structures (survey Section II). Its survey
// profile: main + external memory, indexes, API only (no query language),
// attributed directed graphs with a typed schema, and types/identity/
// referential integrity constraints (Table VI).
package bitmapdb

import (
	"context"

	"gdbm/internal/constraint"
	"gdbm/internal/engine"
	"gdbm/internal/engines/propcore"
	"gdbm/internal/index"
	"gdbm/internal/memgraph"
	"gdbm/internal/model"
)

func init() {
	engine.Register("bitmapdb", "DEX", func(opts engine.Options) (engine.Engine, error) {
		return New(opts)
	})
}

// DB is the engine instance.
type DB struct {
	*propcore.Core
	engine.Disk
	labels *index.Bitmap
}

// New opens a bitmapdb instance. Label and property lookups run through
// bitmap indexes — the structure DEX is named for here. With Options.Dir
// set the graph lives in a disk-backed store whose page cache
// Options.CacheBytes funds; otherwise in main memory.
func New(opts engine.Options) (*DB, error) {
	db := &DB{}
	if opts.Dir != "" {
		d, kg, err := engine.OpenDisk(opts, "bitmapdb.pg")
		if err != nil {
			return nil, err
		}
		db.Disk, db.Core = d, propcore.New(kg)
	} else {
		db.Core = propcore.New(memgraph.New())
	}
	lbl := index.NewBitmap()
	db.labels = lbl
	if err := db.Core.Idx.Register(index.Nodes, "", lbl); err != nil {
		db.Close()
		return nil, err
	}
	if err := db.Core.IndexStoredNodes(); err != nil {
		db.Close()
		return nil, err
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

// Essentials implements engine.Engine: DEX's API composes every essential
// query class except regular simple paths and pattern matching. The kernels
// run under ctx.
func (db *DB) Essentials(ctx context.Context) engine.Essentials {
	return engine.TraversalEssentials(ctx, db.Core, db.AcquireSnapshot)
}

// AcquireSnapshot implements engine.Concurrent over the store's
// copy-on-write views, in both configurations.
func (db *DB) AcquireSnapshot() (model.Graph, model.ReleaseFunc, error) {
	return db.Core.AcquireView()
}

var (
	_ engine.Engine       = (*DB)(nil)
	_ engine.GraphAPI     = (*DB)(nil)
	_ engine.SchemaHolder = (*DB)(nil)
	_ engine.Loader       = (*DB)(nil)
	_ engine.CacheStatser = (*DB)(nil)
	_ engine.Concurrent   = (*DB)(nil)
)
