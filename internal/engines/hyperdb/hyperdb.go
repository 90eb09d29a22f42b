// Package hyperdb implements the HyperGraphDB-archetype engine: the
// hypergraph data model where an edge (hyperedge) relates an arbitrary set
// of nodes, suited to higher-order relations (survey Section II). Its
// survey profile: main + external memory + backend storage with indexes,
// API only, typed atoms (types checking + identity constraints). The
// hypergraph is stored as its incidence graph (propcore.Hyper) on the
// shared property-graph core, in main memory or, with Options.Dir set, in
// the kv-backed store.
package hyperdb

import (
	"context"
	"fmt"
	"path/filepath"

	"gdbm/internal/algo"
	"gdbm/internal/constraint"
	"gdbm/internal/engine"
	"gdbm/internal/engines/propcore"
	"gdbm/internal/index"
	"gdbm/internal/memgraph"
	"gdbm/internal/model"
	"gdbm/internal/storage/kv"
)

func init() {
	engine.Register("hyperdb", "HyperGraphDB", func(opts engine.Options) (engine.Engine, error) {
		return New(opts)
	})
}

// DB is the engine instance. Its hypergraph surface (engine.HyperAPI) is
// the embedded Hyper; the core is a named field, so its binary graph
// surface, which the archetype lacks, is not promoted.
type DB struct {
	*propcore.Hyper
	engine.Disk
	core *propcore.Core
}

// New opens a hyperdb instance, in main memory or, with Options.Dir set,
// over a kv-backed store whose page cache CacheBytes funds.
func New(opts engine.Options) (*DB, error) {
	db := &DB{}
	var g model.MutableGraph
	if opts.Dir == "" {
		g = memgraph.New()
	} else {
		const file = "hyperdb.pg"
		d, kg, err := engine.OpenDisk(opts, file)
		if err != nil {
			return nil, err
		}
		db.Disk = d
		if err := refuseAtomLog(kg.Store(), filepath.Join(opts.Dir, file)); err != nil {
			db.Close()
			return nil, err
		}
		g = kg
	}
	db.core = propcore.New(g)
	db.Hyper = propcore.NewHyper(db.core)
	if _, err := db.core.Idx.Create(index.Nodes, "", index.KindHash); err != nil {
		db.Close()
		return nil, err
	}
	// Indexes live in memory: cover the atoms a reopened store holds.
	if err := db.Nodes(func(n model.Node) bool {
		db.core.Idx.OnNodeWrite(n, "", nil)
		return true
	}); err != nil {
		db.Close()
		return nil, err
	}
	db.core.Cons.Add(constraint.Types{Schema: db.core.Sch})
	return db, nil
}

// refuseAtomLog fails on a store holding the retired atom log (one a!<seq>
// record per atom and link), which this version does not read: opening
// it would show an empty hypergraph.
func refuseAtomLog(st kv.Store, path string) error {
	found := false
	if err := st.Scan([]byte("a!"), func(_, _ []byte) bool {
		found = true
		return false
	}); err != nil {
		return fmt.Errorf("hyperdb: scan %s for the atom log: %w", path, err)
	}
	if found {
		return fmt.Errorf("hyperdb: %s holds the retired atom-log format (a! keys), which this version does not read", path)
	}
	return nil
}

// SetIdentity declares prop as the identity of label atoms.
func (db *DB) SetIdentity(label, prop string) {
	db.core.Cons.Add(constraint.Identity{Label: label, Prop: prop})
}

// Schema implements engine.SchemaHolder.
func (db *DB) Schema() *model.Schema { return db.core.Sch }

// Name implements engine.Engine.
func (db *DB) Name() string { return "hyperdb" }

// SurveyRow implements engine.Engine.
func (db *DB) SurveyRow() string { return "HyperGraphDB" }

// Features implements engine.Engine.
func (db *DB) Features() engine.Features {
	return engine.Features{
		MainMemory: engine.Yes, ExternalMemory: engine.Yes, BackendStorage: engine.Yes, Indexes: engine.Yes,
		API:         engine.Yes,
		Hypergraphs: engine.Yes,
		NodeLabeled: engine.Yes,
		Directed:    engine.Yes, EdgeLabeled: engine.Yes,
		SchemaNodeTypes: engine.Yes, SchemaRelationTypes: engine.Yes,
		ValueNodes: engine.Yes, SimpleRelations: engine.Yes, ComplexRelations: engine.Yes,
		APIQueryFacility: engine.Yes, Retrieval: engine.Yes,
		TypesChecking: engine.Yes, NodeEdgeIdentity: engine.Yes,
	}
}

// Essentials implements engine.Engine: the hypergraph API composes node
// adjacency (shared hyperedge membership) and aggregate summarization;
// path utilities are not part of its surface (Table VII row). The
// summarization fold checks ctx before it scans.
func (db *DB) Essentials(ctx context.Context) engine.Essentials {
	return engine.Essentials{
		NodeAdjacency: func(a, b model.NodeID) (bool, error) {
			found := false
			err := db.Incident(a, func(e model.HyperEdge) bool {
				for _, m := range e.Members {
					if m == b {
						found = true
						return false
					}
				}
				return true
			})
			return found, err
		},
		EdgeAdjacency: func(e1, e2 model.EdgeID) (bool, error) {
			a, err := db.HyperEdge(e1)
			if err != nil {
				return false, err
			}
			b, err := db.HyperEdge(e2)
			if err != nil {
				return false, err
			}
			set := map[model.NodeID]bool{}
			for _, m := range a.Members {
				set[m] = true
			}
			for _, m := range b.Members {
				if set[m] {
					return true, nil
				}
			}
			return false, nil
		},
		Summarization: func(kind algo.AggKind, label, prop string) (model.Value, error) {
			if err := ctx.Err(); err != nil {
				return model.Null(), err
			}
			agg := algo.NewAggregator(kind)
			err := db.Nodes(func(n model.Node) bool {
				if label != "" && n.Label != label {
					return true
				}
				if kind == algo.AggCount {
					agg.Add(model.Int(1))
				} else {
					agg.Add(n.Props.Get(prop))
				}
				return true
			})
			if err != nil {
				return model.Null(), err
			}
			return agg.Result(), nil
		},
	}
}

// LoadNode implements engine.Loader, declaring unseen atom types first.
func (db *DB) LoadNode(label string, props model.Properties) (model.NodeID, error) {
	db.core.Sch.EnsureNodeType(label, props)
	return db.AddNode(label, props)
}

// LoadEdge implements engine.Loader: binary edges become 2-member links.
func (db *DB) LoadEdge(label string, from, to model.NodeID, props model.Properties) (model.EdgeID, error) {
	return db.AddHyperEdge(label, []model.NodeID{from, to}, props)
}

var (
	_ engine.Engine       = (*DB)(nil)
	_ engine.CacheStatser = (*DB)(nil)
	_ engine.HyperAPI     = (*DB)(nil)
	_ engine.Loader       = (*DB)(nil)
	_ engine.Persistent   = (*DB)(nil)
)
