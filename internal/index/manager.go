package index

import (
	"fmt"
	"sync"

	"gdbm/internal/model"
)

// Target says whether an index covers nodes or edges.
type Target uint8

const (
	Nodes Target = iota
	Edges
)

// String returns "nodes" or "edges".
func (t Target) String() string {
	if t == Nodes {
		return "nodes"
	}
	return "edges"
}

// KindName selects an index implementation in Manager.Create.
type KindName string

const (
	KindBitmap KindName = "bitmap"
	KindHash   KindName = "hash"
)

// Manager owns the secondary indexes of one engine, keyed by (target,
// property). The special property "" indexes labels.
type Manager struct {
	mu      sync.RWMutex
	indexes map[slot]Index
}

// slot names one index of a Manager.
type slot struct {
	t    Target
	prop string
}

// NewManager returns an empty index manager.
func NewManager() *Manager {
	return &Manager{indexes: make(map[slot]Index)}
}

// Create registers an index of the given kind for (target, prop).
func (m *Manager) Create(t Target, prop string, kind KindName) (Index, error) {
	var idx Index
	switch kind {
	case KindBitmap:
		idx = NewBitmap()
	case KindHash:
		idx = NewHash()
	default:
		return nil, fmt.Errorf("index: unknown kind %q", kind)
	}
	return idx, m.Register(t, prop, idx)
}

// Register installs a caller-constructed index for (target, prop).
func (m *Manager) Register(t Target, prop string, idx Index) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := slot{t, prop}
	if _, ok := m.indexes[k]; ok {
		return fmt.Errorf("index on %s %q: %w", t, prop, model.ErrAlreadyExists)
	}
	m.indexes[k] = idx
	return nil
}

// Get returns the index for (target, prop) if one exists.
func (m *Manager) Get(t Target, prop string) (Index, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	idx, ok := m.indexes[slot{t, prop}]
	return idx, ok
}

// Rebuild clears every registered index and refills it from g's nodes and
// edges. A store rolled back to an earlier state needs it: its indexes
// followed the writes that the rollback undid.
func (m *Manager) Rebuild(g model.Graph) error {
	m.mu.RLock()
	for _, idx := range m.indexes {
		idx.Clear()
	}
	m.mu.RUnlock()
	if err := g.Nodes(func(n model.Node) bool {
		m.OnNodeWrite(n, "", nil)
		return true
	}); err != nil {
		return err
	}
	return g.Edges(func(e model.Edge) bool {
		m.OnEdgeWrite(e, "", nil)
		return true
	})
}

// OnNodeWrite updates node indexes for a node insert or property change.
// oldProps may be nil for inserts.
func (m *Manager) OnNodeWrite(n model.Node, oldLabel string, oldProps model.Properties) {
	m.onWrite(Nodes, uint64(n.ID), n.Label, n.Props, oldLabel, oldProps)
}

// OnNodeDelete removes node index entries.
func (m *Manager) OnNodeDelete(n model.Node) {
	m.onDelete(Nodes, uint64(n.ID), n.Label, n.Props)
}

// OnEdgeWrite updates edge indexes.
func (m *Manager) OnEdgeWrite(e model.Edge, oldLabel string, oldProps model.Properties) {
	m.onWrite(Edges, uint64(e.ID), e.Label, e.Props, oldLabel, oldProps)
}

// OnEdgeDelete removes edge index entries.
func (m *Manager) OnEdgeDelete(e model.Edge) {
	m.onDelete(Edges, uint64(e.ID), e.Label, e.Props)
}

func (m *Manager) onWrite(t Target, id uint64, label string, props model.Properties, oldLabel string, oldProps model.Properties) {
	if idx, ok := m.Get(t, ""); ok {
		if oldLabel != "" && oldLabel != label {
			idx.Remove(model.Str(oldLabel), id)
		}
		if label != "" {
			idx.Add(model.Str(label), id)
		}
	}
	for name, old := range oldProps {
		if nv, ok := props[name]; !ok || !nv.Equal(old) {
			if idx, ok := m.Get(t, name); ok {
				idx.Remove(old, id)
			}
		}
	}
	for name, v := range props {
		if idx, ok := m.Get(t, name); ok {
			idx.Add(v, id)
		}
	}
}

func (m *Manager) onDelete(t Target, id uint64, label string, props model.Properties) {
	if idx, ok := m.Get(t, ""); ok && label != "" {
		idx.Remove(model.Str(label), id)
	}
	for name, v := range props {
		if idx, ok := m.Get(t, name); ok {
			idx.Remove(v, id)
		}
	}
}
