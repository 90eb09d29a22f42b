package propcore

import (
	"errors"
	"fmt"
	"strings"

	"gdbm/internal/model"
)

// linkMark prefixes the stored label of every link record and labels its
// member edges. Atom labels may not start with it, so no scan, lookup or
// constraint can take a link for an atom, even one with the same label and
// properties.
const linkMark = "\x00"

func isLink(label string) bool { return strings.HasPrefix(label, linkMark) }

// Hyper is a hypergraph stored as its incidence graph in a Core's store.
// An atom is a node record. A link is a node record labelled linkMark plus
// its label, with one member edge to each member in member order; its
// hyperedge id is its node id. Atoms go through the Core's constraints and
// label index under its mutation lock. Links are structure: they are
// written to the store under the same lock and bypass both, but a link is
// held to the relation type its label names (AddHyperEdge).
type Hyper struct{ c *Core }

// NewHyper returns the hypergraph stored in c's graph.
func NewHyper(c *Core) *Hyper { return &Hyper{c} }

// atomView is the store as the atom constraints judge it: node reads see
// atoms only. The node constraints read nothing else.
type atomView struct {
	model.Graph
	h *Hyper
}

func (v atomView) Order() int                               { return v.h.Order() }
func (v atomView) Node(id model.NodeID) (model.Node, error) { return v.h.Node(id) }
func (v atomView) Nodes(fn func(model.Node) bool) error     { return v.h.Nodes(fn) }

// Order returns the number of atoms, or -1 if the store's scan fails.
func (h *Hyper) Order() int { return h.count(false) }

// Size returns the number of links, or -1 if the store's scan fails.
func (h *Hyper) Size() int { return h.count(true) }

func (h *Hyper) count(links bool) int {
	n := 0
	if err := h.c.g.Nodes(func(r model.Node) bool {
		if isLink(r.Label) == links {
			n++
		}
		return true
	}); err != nil {
		return -1
	}
	return n
}

// Node returns atom id; a link's id is not found.
func (h *Hyper) Node(id model.NodeID) (model.Node, error) {
	n, err := h.c.g.Node(id)
	if err == nil && isLink(n.Label) {
		return model.Node{}, model.NodeNotFound(id)
	}
	return n, err
}

// Nodes iterates the atoms.
func (h *Hyper) Nodes(fn func(model.Node) bool) error {
	return h.c.g.Nodes(func(n model.Node) bool { return isLink(n.Label) || fn(n) })
}

// linkRecord returns the node record of link id; an atom's id is not found.
func (h *Hyper) linkRecord(id model.EdgeID) (model.Node, error) {
	n, err := h.c.g.Node(model.NodeID(id))
	if errors.Is(err, model.ErrNotFound) || err == nil && !isLink(n.Label) {
		return model.Node{}, model.EdgeNotFound(id)
	}
	return n, err
}

// link reads the members of link record n into its hyperedge.
func (h *Hyper) link(n model.Node) (model.HyperEdge, error) {
	e := model.HyperEdge{ID: model.EdgeID(n.ID), Label: n.Label[len(linkMark):], Props: n.Props}
	err := h.c.g.Neighbors(n.ID, model.Out, func(_ model.Edge, m model.Node) bool {
		e.Members = append(e.Members, m.ID)
		return true
	})
	return e, err
}

// HyperEdge returns link id with its members in order.
func (h *Hyper) HyperEdge(id model.EdgeID) (model.HyperEdge, error) {
	n, err := h.linkRecord(id)
	if err != nil {
		return model.HyperEdge{}, err
	}
	return h.link(n)
}

// HyperEdges iterates the links.
func (h *Hyper) HyperEdges(fn func(model.HyperEdge) bool) error {
	var inner error
	err := h.c.g.Nodes(func(n model.Node) bool {
		if !isLink(n.Label) {
			return true
		}
		e, err := h.link(n)
		if err != nil {
			inner = err
			return false
		}
		return fn(e)
	})
	if err != nil {
		return err
	}
	return inner
}

// Incident iterates the links atom id is a member of, each once however
// often it lists id.
func (h *Hyper) Incident(id model.NodeID, fn func(model.HyperEdge) bool) error {
	if _, err := h.Node(id); err != nil {
		return err
	}
	var links []model.Node
	seen := map[model.NodeID]bool{}
	if err := h.c.g.Neighbors(id, model.In, func(_ model.Edge, l model.Node) bool {
		if !seen[l.ID] {
			seen[l.ID] = true
			links = append(links, l)
		}
		return true
	}); err != nil {
		return err
	}
	for _, l := range links {
		e, err := h.link(l)
		if err != nil {
			return err
		}
		if !fn(e) {
			return nil
		}
	}
	return nil
}

// AddNode adds an atom through the Core's constraints, which see atoms
// only, and its indexes.
func (h *Hyper) AddNode(label string, props model.Properties) (model.NodeID, error) {
	if isLink(label) {
		return 0, fmt.Errorf("propcore: atom label %q starts with the link mark: %w", label, model.ErrConstraint)
	}
	return h.c.addNode(atomView{h.c.g, h}, label, props)
}

// AddHyperEdge adds a link over one or more member atoms. A link whose
// label names a relation type with a source or target type must have two
// members, typed as an edge of that relation would be. A link whose member
// edges cannot all be written is removed again.
func (h *Hyper) AddHyperEdge(label string, members []model.NodeID, props model.Properties) (model.EdgeID, error) {
	if len(members) == 0 {
		return 0, model.ErrUnsupported
	}
	h.c.mu.Lock()
	defer h.c.mu.Unlock()
	for _, m := range members {
		if _, err := h.Node(m); err != nil {
			return 0, err
		}
	}
	if err := h.checkType(label, members, props); err != nil {
		return 0, err
	}
	id, err := h.c.g.AddNode(linkMark+label, props)
	if err != nil {
		return 0, err
	}
	for _, m := range members {
		if _, err := h.c.g.AddEdge(linkMark, id, m, nil); err != nil {
			return 0, errors.Join(err, h.c.g.RemoveNode(id))
		}
	}
	return model.EdgeID(id), nil
}

// checkType holds a link to the relation type its label names when that
// type has a source or target type: the link must have two members, and it
// is judged as an edge of the relation from the first to the second.
func (h *Hyper) checkType(label string, members []model.NodeID, props model.Properties) error {
	t, ok := h.c.Sch.RelationType(label)
	if !ok || t.From == "" && t.To == "" {
		return nil
	}
	if len(members) != 2 {
		return fmt.Errorf("relation %q types binary links, got a link of %d members: %w", label, len(members), model.ErrConstraint)
	}
	from, err := h.Node(members[0])
	if err != nil {
		return err
	}
	to, err := h.Node(members[1])
	if err != nil {
		return err
	}
	return h.c.Sch.CheckEdge(model.Edge{Label: label, From: from.ID, To: to.ID, Props: props}, from.Label, to.Label)
}

// RemoveHyperEdge removes link id and its member edges.
func (h *Hyper) RemoveHyperEdge(id model.EdgeID) error {
	h.c.mu.Lock()
	defer h.c.mu.Unlock()
	if _, err := h.linkRecord(id); err != nil {
		return err
	}
	return h.c.g.RemoveNode(model.NodeID(id))
}

var _ model.MutableHypergraph = (*Hyper)(nil)
