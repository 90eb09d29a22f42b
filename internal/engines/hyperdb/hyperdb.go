// Package hyperdb implements the HyperGraphDB-archetype engine: the
// hypergraph data model where an edge (hyperedge) relates an arbitrary set
// of nodes, suited to higher-order relations (survey Section II). Its
// survey profile: main + external memory + backend storage with indexes,
// API only, typed atoms (types checking + identity constraints).
package hyperdb

import (
	"context"
	"fmt"
	"path/filepath"

	"gdbm/internal/algo"
	"gdbm/internal/cache"
	"gdbm/internal/engine"
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

// DB is the engine instance: a main-memory hypergraph with an optional
// kv-backed statement log providing the backend-storage/persistence role.
type DB struct {
	h      *memgraph.Hypergraph
	idx    *index.Manager
	schema *model.Schema
	// identities: label -> identifying property.
	identities map[string]string
	backend    kv.Store
	disk       *kv.Disk
	seq        uint64
}

// New opens a hyperdb instance.
func New(opts engine.Options) (*DB, error) {
	db := &DB{
		h:          memgraph.NewHypergraph(),
		idx:        index.NewManager(),
		schema:     model.NewSchema(),
		identities: map[string]string{},
	}
	if _, err := db.idx.Create(index.Nodes, "", index.KindHash); err != nil {
		return nil, err
	}
	if opts.Dir != "" {
		// The hypergraph itself is main memory with a persisted atom log;
		// CacheBytes funds the log store's page cache alone.
		d, err := kv.OpenDiskWith(filepath.Join(opts.Dir, "hyperdb.pg"), kv.DiskOptions{
			PoolPages: opts.PoolPages, CacheBytes: opts.CacheBytes, FS: opts.FS, Metrics: opts.Metrics,
		})
		if err != nil {
			return nil, err
		}
		db.disk = d
		db.backend = d
		if err := db.replay(); err != nil {
			d.Close()
			return nil, err
		}
	}
	return db, nil
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

// replay loads persisted atoms from the backend log into memory.
func (db *DB) replay() error {
	type pending struct {
		label   string
		members []model.NodeID
		props   model.Properties
	}
	var nodes []pending
	var edges []pending
	err := db.backend.Scan([]byte("a!"), func(k, v []byte) bool {
		db.seq++ // continue the log sequence after the persisted entries
		rec, perr := decodeAtom(v)
		if perr != nil {
			return true
		}
		if len(rec.members) == 0 {
			nodes = append(nodes, rec)
		} else {
			edges = append(edges, rec)
		}
		return true
	})
	if err != nil {
		return err
	}
	for _, n := range nodes {
		id, err := db.h.AddNode(n.label, n.props)
		if err != nil {
			return err
		}
		db.idx.OnNodeWrite(model.Node{ID: id, Label: n.label, Props: n.props}, "", nil)
	}
	for _, e := range edges {
		if _, err := db.h.AddHyperEdge(e.label, e.members, e.props); err != nil {
			return err
		}
	}
	return nil
}

// AddAtom inserts a node atom, enforcing types checking and identity.
func (db *DB) AddAtom(label string, props model.Properties) (model.NodeID, error) {
	n := model.Node{Label: label, Props: props}
	if err := db.schema.CheckNode(n); err != nil {
		return 0, err
	}
	if prop, ok := db.identities[label]; ok {
		v := props.Get(prop)
		if v.IsNull() {
			return 0, fmt.Errorf("hyperdb: %q atoms must set %q: %w", label, prop, model.ErrConstraint)
		}
		// A failed scan must not fall through to AddNode: it could admit a
		// duplicate the identity check would have rejected.
		dup := false
		if err := db.h.Nodes(func(o model.Node) bool {
			if o.Label == label && o.Props.Get(prop).Equal(v) {
				dup = true
				return false
			}
			return true
		}); err != nil {
			return 0, err
		}
		if dup {
			return 0, fmt.Errorf("hyperdb: duplicate identity %s=%v: %w", prop, v, model.ErrConstraint)
		}
	}
	id, err := db.h.AddNode(label, props)
	if err != nil {
		return 0, err
	}
	db.idx.OnNodeWrite(model.Node{ID: id, Label: label, Props: props}, "", nil)
	if db.backend != nil {
		if err := db.persistAtom(label, nil, props); err != nil {
			return 0, err
		}
	}
	return id, nil
}

// AddLink inserts a hyperedge relating the member atoms.
func (db *DB) AddLink(label string, members []model.NodeID, props model.Properties) (model.EdgeID, error) {
	id, err := db.h.AddHyperEdge(label, members, props)
	if err != nil {
		return 0, err
	}
	if db.backend != nil {
		if err := db.persistAtom(label, members, props); err != nil {
			return 0, err
		}
	}
	return id, nil
}

// persistAtom appends one atom record to the backend log. A failed append
// must surface: swallowing it would report the atom as durable when the log
// no longer contains it.
func (db *DB) persistAtom(label string, members []model.NodeID, props model.Properties) error {
	db.seq++
	key := []byte(fmt.Sprintf("a!%016x", db.seq))
	return db.backend.Put(key, encodeAtom(label, members, props))
}

// Hypergraph exposes the structural read surface.
func (db *DB) Hypergraph() model.Hypergraph { return db.h }

// SetIdentity declares prop as the identity of label atoms.
func (db *DB) SetIdentity(label, prop string) { db.identities[label] = prop }

// Schema implements engine.SchemaHolder.
func (db *DB) Schema() *model.Schema { return db.schema }

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
			err := db.h.Incident(a, func(e model.HyperEdge) bool {
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
			a, err := db.h.HyperEdge(e1)
			if err != nil {
				return false, err
			}
			b, err := db.h.HyperEdge(e2)
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
			err := db.h.Nodes(func(n model.Node) bool {
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
	db.schema.EnsureNodeType(label, props)
	return db.AddAtom(label, props)
}

// LoadEdge implements engine.Loader: binary edges become 2-member links.
func (db *DB) LoadEdge(label string, from, to model.NodeID, props model.Properties) (model.EdgeID, error) {
	return db.AddLink(label, []model.NodeID{from, to}, props)
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

// --- atom log encoding ---

func encodeAtom(label string, members []model.NodeID, props model.Properties) []byte {
	buf := make([]byte, 0, 64)
	buf = appendString(buf, label)
	buf = appendUvarint(buf, uint64(len(members)))
	for _, m := range members {
		buf = appendUvarint(buf, uint64(m))
	}
	pb, _ := props.MarshalBinary()
	buf = append(buf, pb...)
	return buf
}

func decodeAtom(data []byte) (struct {
	label   string
	members []model.NodeID
	props   model.Properties
}, error) {
	var out struct {
		label   string
		members []model.NodeID
		props   model.Properties
	}
	label, rest, err := readString(data)
	if err != nil {
		return out, err
	}
	out.label = label
	n, rest, err := readUvarint(rest)
	if err != nil {
		return out, err
	}
	for i := uint64(0); i < n; i++ {
		var m uint64
		m, rest, err = readUvarint(rest)
		if err != nil {
			return out, err
		}
		out.members = append(out.members, model.NodeID(m))
	}
	props, err := model.UnmarshalProperties(rest)
	if err != nil {
		return out, err
	}
	if len(props) > 0 {
		out.props = props
	}
	return out, nil
}

func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func readUvarint(b []byte) (uint64, []byte, error) {
	var v uint64
	var shift uint
	for i := 0; i < len(b); i++ {
		v |= uint64(b[i]&0x7f) << shift
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
		shift += 7
	}
	return 0, nil, fmt.Errorf("hyperdb: truncated varint")
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func readString(b []byte) (string, []byte, error) {
	n, rest, err := readUvarint(b)
	if err != nil {
		return "", nil, err
	}
	if uint64(len(rest)) < n {
		return "", nil, fmt.Errorf("hyperdb: truncated string")
	}
	return string(rest[:n]), rest[n:], nil
}

var (
	_ engine.Engine       = (*DB)(nil)
	_ engine.CacheStatser = (*DB)(nil)
	_ engine.HyperAPI     = hyperAPI{}
	_ engine.Loader       = (*DB)(nil)
)

// hyperAPI adapts DB to engine.HyperAPI.
type hyperAPI struct{ db *DB }

// HyperAPIOf returns the mutable hypergraph surface.
func (db *DB) HyperAPIOf() engine.HyperAPI { return hyperAPI{db} }

func (h hyperAPI) Order() int                               { return h.db.h.Order() }
func (h hyperAPI) Size() int                                { return h.db.h.Size() }
func (h hyperAPI) Node(id model.NodeID) (model.Node, error) { return h.db.h.Node(id) }
func (h hyperAPI) HyperEdge(id model.EdgeID) (model.HyperEdge, error) {
	return h.db.h.HyperEdge(id)
}
func (h hyperAPI) Nodes(fn func(model.Node) bool) error           { return h.db.h.Nodes(fn) }
func (h hyperAPI) HyperEdges(fn func(model.HyperEdge) bool) error { return h.db.h.HyperEdges(fn) }
func (h hyperAPI) Incident(id model.NodeID, fn func(model.HyperEdge) bool) error {
	return h.db.h.Incident(id, fn)
}
func (h hyperAPI) AddNode(label string, props model.Properties) (model.NodeID, error) {
	return h.db.AddAtom(label, props)
}
func (h hyperAPI) AddHyperEdge(label string, members []model.NodeID, props model.Properties) (model.EdgeID, error) {
	return h.db.AddLink(label, members, props)
}
func (h hyperAPI) RemoveHyperEdge(id model.EdgeID) error { return h.db.h.RemoveHyperEdge(id) }
