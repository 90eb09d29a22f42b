package propcore

import (
	"errors"
	"slices"
	"testing"

	"gdbm/internal/constraint"
	"gdbm/internal/index"
	"gdbm/internal/kvgraph"
	"gdbm/internal/memgraph"
	"gdbm/internal/model"
	"gdbm/internal/storage/kv"
)

// eachHyperStore runs fn over a Hyper on each store the engines use: the
// in-memory graph and the kv-backed one.
func eachHyperStore(t *testing.T, fn func(t *testing.T, c *Core, h *Hyper)) {
	stores := []struct {
		name string
		open func() model.MutableGraph
	}{
		{"memgraph", func() model.MutableGraph { return memgraph.New() }},
		{"kvgraph", func() model.MutableGraph { return kvgraph.New(kv.NewMemory()) }},
	}
	for _, s := range stores {
		t.Run(s.name, func(t *testing.T) {
			c := New(s.open())
			fn(t, c, NewHyper(c))
		})
	}
}

func incidentCount(t *testing.T, h *Hyper, id model.NodeID) int {
	t.Helper()
	n := 0
	if err := h.Incident(id, func(model.HyperEdge) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestHypergraphBasics(t *testing.T) {
	eachHyperStore(t, func(t *testing.T, _ *Core, g *Hyper) {
		a, _ := g.AddNode("P", model.Props("name", "a"))
		b, _ := g.AddNode("P", nil)
		c, _ := g.AddNode("P", nil)
		he, err := g.AddHyperEdge("complex", []model.NodeID{c, a, b}, model.Props("kind", "trimer"))
		if err != nil {
			t.Fatal(err)
		}
		if g.Order() != 3 || g.Size() != 1 {
			t.Fatalf("order=%d size=%d", g.Order(), g.Size())
		}
		e, err := g.HyperEdge(he)
		if err != nil || e.Label != "complex" || !slices.Equal(e.Members, []model.NodeID{c, a, b}) {
			t.Fatalf("HyperEdge: %+v %v", e, err)
		}
		if k, _ := e.Props.Get("kind").AsString(); k != "trimer" {
			t.Errorf("props = %v", e.Props)
		}
		n, err := g.Node(a)
		if err != nil || n.Label != "P" {
			t.Fatalf("Node: %+v %v", n, err)
		}
		if _, err := g.Node(99); !errors.Is(err, model.ErrNotFound) {
			t.Errorf("missing node: %v", err)
		}
		if _, err := g.HyperEdge(99); !errors.Is(err, model.ErrNotFound) {
			t.Errorf("missing edge: %v", err)
		}
		// Atom and link ids share the store's node ids; neither reads as
		// the other.
		if _, err := g.Node(model.NodeID(he)); !errors.Is(err, model.ErrNotFound) {
			t.Errorf("Node(link) = %v, want not found", err)
		}
		if _, err := g.HyperEdge(model.EdgeID(a)); !errors.Is(err, model.ErrNotFound) {
			t.Errorf("HyperEdge(atom) = %v, want not found", err)
		}
	})
}

func TestHyperEdgeValidation(t *testing.T) {
	eachHyperStore(t, func(t *testing.T, _ *Core, g *Hyper) {
		a, _ := g.AddNode("P", nil)
		if _, err := g.AddHyperEdge("x", nil, nil); err == nil {
			t.Error("empty member set should fail")
		}
		if _, err := g.AddHyperEdge("x", []model.NodeID{a, 77}, nil); !errors.Is(err, model.ErrNotFound) {
			t.Errorf("missing member: %v", err)
		}
		link, _ := g.AddHyperEdge("x", []model.NodeID{a}, nil)
		if _, err := g.AddHyperEdge("y", []model.NodeID{a, model.NodeID(link)}, nil); !errors.Is(err, model.ErrNotFound) {
			t.Errorf("link as member: %v", err)
		}
		if _, err := g.AddNode(linkMark+"P", nil); !errors.Is(err, model.ErrConstraint) {
			t.Errorf("atom label with the link mark: %v", err)
		}
		if g.Order() != 1 || g.Size() != 1 {
			t.Errorf("rejected writes left order=%d size=%d", g.Order(), g.Size())
		}
	})
}

func TestIncident(t *testing.T) {
	eachHyperStore(t, func(t *testing.T, _ *Core, g *Hyper) {
		a, _ := g.AddNode("P", nil)
		b, _ := g.AddNode("P", nil)
		c, _ := g.AddNode("P", nil)
		g.AddHyperEdge("e1", []model.NodeID{a, b}, nil)
		g.AddHyperEdge("e2", []model.NodeID{a, b, c}, nil)
		if incidentCount(t, g, a) != 2 || incidentCount(t, g, b) != 2 || incidentCount(t, g, c) != 1 {
			t.Errorf("incident counts: a=%d b=%d c=%d", incidentCount(t, g, a), incidentCount(t, g, b), incidentCount(t, g, c))
		}
		if err := g.Incident(99, func(model.HyperEdge) bool { return true }); !errors.Is(err, model.ErrNotFound) {
			t.Errorf("missing node: %v", err)
		}
		// A repeated member yields its link once; the link keeps both.
		d, _ := g.AddNode("P", nil)
		loop, _ := g.AddHyperEdge("loop", []model.NodeID{d, d}, nil)
		if incidentCount(t, g, d) != 1 {
			t.Errorf("repeat-member incident count = %d", incidentCount(t, g, d))
		}
		if e, _ := g.HyperEdge(loop); !slices.Equal(e.Members, []model.NodeID{d, d}) {
			t.Errorf("repeat-member members = %v", e.Members)
		}
	})
}

func TestRemoveHyperEdge(t *testing.T) {
	eachHyperStore(t, func(t *testing.T, _ *Core, g *Hyper) {
		a, _ := g.AddNode("P", nil)
		b, _ := g.AddNode("P", nil)
		id, _ := g.AddHyperEdge("e", []model.NodeID{a, b}, nil)
		if err := g.RemoveHyperEdge(id); err != nil {
			t.Fatal(err)
		}
		if g.Size() != 0 || g.Order() != 2 {
			t.Errorf("size = %d order = %d", g.Size(), g.Order())
		}
		if n := incidentCount(t, g, a); n != 0 {
			t.Errorf("stale incidence after removal: %d", n)
		}
		if err := g.RemoveHyperEdge(id); !errors.Is(err, model.ErrNotFound) {
			t.Errorf("double remove: %v", err)
		}
		if err := g.RemoveHyperEdge(model.EdgeID(a)); !errors.Is(err, model.ErrNotFound) {
			t.Errorf("remove an atom as a link: %v", err)
		}
		if _, err := g.Node(a); err != nil {
			t.Errorf("atom gone after a failed link removal: %v", err)
		}
	})
}

func TestHyperEdgeSnapshotIsolation(t *testing.T) {
	eachHyperStore(t, func(t *testing.T, _ *Core, g *Hyper) {
		a, _ := g.AddNode("P", nil)
		b, _ := g.AddNode("P", nil)
		id, _ := g.AddHyperEdge("e", []model.NodeID{a, b}, nil)
		e, _ := g.HyperEdge(id)
		e.Members[0] = 999
		e2, _ := g.HyperEdge(id)
		if e2.Members[0] != a {
			t.Error("HyperEdge should return an independent copy of Members")
		}
	})
}

func TestHypergraphIterators(t *testing.T) {
	eachHyperStore(t, func(t *testing.T, _ *Core, g *Hyper) {
		a, _ := g.AddNode("P", nil)
		g.AddHyperEdge("e", []model.NodeID{a}, nil)
		g.AddHyperEdge("f", []model.NodeID{a}, nil)
		n := 0
		if err := g.Nodes(func(model.Node) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		if n != 1 {
			t.Errorf("Nodes visited %d", n)
		}
		n = 0
		if err := g.HyperEdges(func(model.HyperEdge) bool { n++; return false }); err != nil {
			t.Fatal(err)
		}
		if n != 1 {
			t.Errorf("HyperEdges early stop visited %d", n)
		}
	})
}

// TestLinkSharingAtomLabel: a link with an atom type's label and the value
// of its identity property is not an atom to any read, constraint or index.
func TestLinkSharingAtomLabel(t *testing.T) {
	eachHyperStore(t, func(t *testing.T, c *Core, g *Hyper) {
		c.Sch.EnsureNodeType("Protein", model.Props("name", ""))
		c.Cons.Add(constraint.Types{Schema: c.Sch})
		c.Cons.Add(constraint.Identity{Label: "Protein", Prop: "name"})
		c.Cons.Add(constraint.Identity{Prop: "name"}) // over every atom
		if _, err := c.Idx.Create(index.Nodes, "", index.KindHash); err != nil {
			t.Fatal(err)
		}
		a, err := g.AddNode("Protein", model.Props("name", "a"))
		if err != nil {
			t.Fatal(err)
		}
		link, err := g.AddHyperEdge("Protein", []model.NodeID{a}, model.Props("name", "x"))
		if err != nil {
			t.Fatal(err)
		}
		x, err := g.AddNode("Protein", model.Props("name", "x"))
		if err != nil {
			t.Fatalf("identity took the link for an atom: %v", err)
		}
		if _, err := g.AddNode("Protein", model.Props("name", "x")); !errors.Is(err, model.ErrConstraint) {
			t.Errorf("duplicate atom admitted: %v", err)
		}
		if g.Order() != 2 || g.Size() != 1 {
			t.Errorf("order=%d size=%d, want 2 1", g.Order(), g.Size())
		}
		var atoms []model.NodeID
		if err := g.Nodes(func(n model.Node) bool { atoms = append(atoms, n.ID); return true }); err != nil {
			t.Fatal(err)
		}
		slices.Sort(atoms)
		if !slices.Equal(atoms, []model.NodeID{a, x}) {
			t.Errorf("Nodes = %v, want %v", atoms, []model.NodeID{a, x})
		}
		if _, err := g.Node(model.NodeID(link)); !errors.Is(err, model.ErrNotFound) {
			t.Errorf("Node(link) = %v", err)
		}
		var indexed []model.NodeID
		if _, err := c.IndexedNodes("Protein", "", model.Null(), func(n model.Node) bool {
			indexed = append(indexed, n.ID)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		slices.Sort(indexed)
		if !slices.Equal(indexed, []model.NodeID{a, x}) {
			t.Errorf("label index = %v, want %v", indexed, []model.NodeID{a, x})
		}
		if n := incidentCount(t, g, a); n != 1 {
			t.Errorf("Incident(a) = %d links", n)
		}
		if n := incidentCount(t, g, x); n != 0 {
			t.Errorf("Incident(x) = %d links", n)
		}
	})
}
