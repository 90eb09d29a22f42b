package constraint

import (
	"errors"
	"testing"

	"gdbm/internal/algo"
	"gdbm/internal/memgraph"
	"gdbm/internal/model"
)

func schemaFor(t *testing.T) *model.Schema {
	t.Helper()
	s := model.NewSchema()
	s.DefineNodeType(model.NodeType{
		Name: "Person",
		Properties: []model.PropertyType{
			{Name: "name", Kind: model.KindString, Required: true},
		},
	})
	s.DefineNodeType(model.NodeType{Name: "City"})
	s.DefineRelationType(model.RelationType{Name: "livesIn", From: "Person", To: "City"})
	return s
}

func TestTypesConstraint(t *testing.T) {
	g := memgraph.New()
	c := Types{Schema: schemaFor(t)}
	ok := Mutation{Kind: AddNode, Node: model.Node{Label: "Person", Props: model.Props("name", "ada")}}
	if err := c.Check(g, ok); err != nil {
		t.Errorf("valid node: %v", err)
	}
	bad := Mutation{Kind: AddNode, Node: model.Node{Label: "Person"}}
	if err := c.Check(g, bad); !errors.Is(err, model.ErrConstraint) {
		t.Errorf("missing required: %v", err)
	}
	// Edge endpoints' labels are read from the graph.
	person, _ := g.AddNode("Person", model.Props("name", "ada"))
	city, _ := g.AddNode("City", nil)
	edgeOK := Mutation{Kind: AddEdge, Edge: model.Edge{Label: "livesIn", From: person, To: city}}
	if err := c.Check(g, edgeOK); err != nil {
		t.Errorf("valid edge: %v", err)
	}
	edgeBad := Mutation{Kind: AddEdge, Edge: model.Edge{Label: "livesIn", From: city, To: city}}
	if err := c.Check(g, edgeBad); !errors.Is(err, model.ErrConstraint) {
		t.Errorf("wrong endpoint type: %v", err)
	}
	const want = `relation "livesIn" requires source type "Person", got "": integrity constraint violation`
	edgeMissing := Mutation{Kind: AddEdge, Edge: model.Edge{Label: "livesIn", From: 99, To: city}}
	if err := c.Check(g, edgeMissing); err == nil || err.Error() != want {
		t.Errorf("missing endpoint: %v, want %s", err, want)
	}
	// Non-node mutations pass through.
	if err := c.Check(g, Mutation{Kind: DelNode}); err != nil {
		t.Errorf("delnode: %v", err)
	}
}

func TestIdentityConstraint(t *testing.T) {
	g := memgraph.New()
	id, _ := g.AddNode("Person", model.Props("name", "ada"))
	c := Identity{Label: "Person", Prop: "name"}

	dup := Mutation{Kind: AddNode, Node: model.Node{ID: 99, Label: "Person", Props: model.Props("name", "ada")}}
	if err := c.Check(g, dup); !errors.Is(err, model.ErrConstraint) {
		t.Errorf("duplicate identity: %v", err)
	}
	fresh := Mutation{Kind: AddNode, Node: model.Node{ID: 99, Label: "Person", Props: model.Props("name", "bob")}}
	if err := c.Check(g, fresh); err != nil {
		t.Errorf("fresh identity: %v", err)
	}
	missing := Mutation{Kind: AddNode, Node: model.Node{ID: 99, Label: "Person"}}
	if err := c.Check(g, missing); !errors.Is(err, model.ErrConstraint) {
		t.Errorf("missing identity prop: %v", err)
	}
	// Updating the same node to its own value is allowed.
	self := Mutation{Kind: UpdateNode, Node: model.Node{ID: id, Label: "Person", Props: model.Props("name", "ada")}}
	if err := c.Check(g, self); err != nil {
		t.Errorf("self update: %v", err)
	}
	// Other labels are ignored.
	other := Mutation{Kind: AddNode, Node: model.Node{ID: 98, Label: "City", Props: model.Props("name", "ada")}}
	if err := c.Check(g, other); err != nil {
		t.Errorf("other label: %v", err)
	}
}

func TestReferentialConstraint(t *testing.T) {
	g := memgraph.New()
	a, _ := g.AddNode("N", nil)
	b, _ := g.AddNode("N", nil)
	g.AddEdge("e", a, b, nil)
	c := Referential{}

	bad := Mutation{Kind: AddEdge, Edge: model.Edge{From: a, To: 999}}
	if err := c.Check(g, bad); !errors.Is(err, model.ErrConstraint) {
		t.Errorf("dangling edge: %v", err)
	}
	okM := Mutation{Kind: AddEdge, Edge: model.Edge{From: a, To: b}}
	if err := c.Check(g, okM); err != nil {
		t.Errorf("valid edge: %v", err)
	}
	delBad := Mutation{Kind: DelNode, Node: model.Node{ID: a}}
	if err := c.Check(g, delBad); !errors.Is(err, model.ErrConstraint) {
		t.Errorf("delete connected node: %v", err)
	}
	iso, _ := g.AddNode("N", nil)
	delOK := Mutation{Kind: DelNode, Node: model.Node{ID: iso}}
	if err := c.Check(g, delOK); err != nil {
		t.Errorf("delete isolated node: %v", err)
	}
}

func TestCardinalityConstraint(t *testing.T) {
	g := memgraph.New()
	a, _ := g.AddNode("N", nil)
	b, _ := g.AddNode("N", nil)
	c2, _ := g.AddNode("N", nil)
	g.AddEdge("owns", a, b, nil)
	cons := Cardinality{EdgeLabel: "owns", Max: 1}

	over := Mutation{Kind: AddEdge, Edge: model.Edge{Label: "owns", From: a, To: c2}}
	if err := cons.Check(g, over); !errors.Is(err, model.ErrConstraint) {
		t.Errorf("over max: %v", err)
	}
	otherLabel := Mutation{Kind: AddEdge, Edge: model.Edge{Label: "likes", From: a, To: c2}}
	if err := cons.Check(g, otherLabel); err != nil {
		t.Errorf("other label: %v", err)
	}
	otherSource := Mutation{Kind: AddEdge, Edge: model.Edge{Label: "owns", From: b, To: c2}}
	if err := cons.Check(g, otherSource); err != nil {
		t.Errorf("other source: %v", err)
	}
}

func TestFuncDepConstraint(t *testing.T) {
	g := memgraph.New()
	g.AddNode("City", model.Props("zip", "9000", "region", "west"))
	c := FuncDep{Label: "City", Determinant: "zip", Dependent: "region"}

	conflict := Mutation{Kind: AddNode, Node: model.Node{ID: 50, Label: "City", Props: model.Props("zip", "9000", "region", "east")}}
	if err := c.Check(g, conflict); !errors.Is(err, model.ErrConstraint) {
		t.Errorf("fd violation: %v", err)
	}
	agree := Mutation{Kind: AddNode, Node: model.Node{ID: 50, Label: "City", Props: model.Props("zip", "9000", "region", "west")}}
	if err := c.Check(g, agree); err != nil {
		t.Errorf("fd agree: %v", err)
	}
	newDet := Mutation{Kind: AddNode, Node: model.Node{ID: 50, Label: "City", Props: model.Props("zip", "1000", "region", "east")}}
	if err := c.Check(g, newDet); err != nil {
		t.Errorf("new determinant: %v", err)
	}
	noDet := Mutation{Kind: AddNode, Node: model.Node{ID: 50, Label: "City"}}
	if err := c.Check(g, noDet); err != nil {
		t.Errorf("absent determinant: %v", err)
	}
}

func TestForbiddenPatternConstraint(t *testing.T) {
	g := memgraph.New()
	a, _ := g.AddNode("N", nil)
	b, _ := g.AddNode("N", nil)
	g.AddEdge("e", a, b, nil)

	// Forbid a 2-cycle: x->y->x.
	pat, err := algo.NewPattern(
		[]algo.PatternNode{{Var: "x"}, {Var: "y"}},
		[]algo.PatternEdge{{From: 0, To: 1, Label: "e"}, {From: 1, To: 0, Label: "e"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	c := ForbiddenPattern{Pattern: pat, Desc: "2-cycle"}

	closing := Mutation{Kind: AddEdge, Edge: model.Edge{ID: 999, Label: "e", From: b, To: a}}
	if err := c.Check(g, closing); !errors.Is(err, model.ErrConstraint) {
		t.Errorf("closing 2-cycle: %v", err)
	}
	harmless := Mutation{Kind: AddEdge, Edge: model.Edge{ID: 999, Label: "e", From: a, To: b}}
	if err := c.Check(g, harmless); err != nil {
		t.Errorf("parallel edge: %v", err)
	}
	// DelNode mutations are ignored by this constraint.
	if err := c.Check(g, Mutation{Kind: DelNode}); err != nil {
		t.Errorf("delnode: %v", err)
	}
}

func TestSetAggregatesConstraints(t *testing.T) {
	g := memgraph.New()
	g.AddNode("Person", model.Props("name", "ada"))
	s := NewSet()
	s.Add(Types{Schema: schemaFor(t)})
	s.Add(Identity{Label: "Person", Prop: "name"})
	names := s.Names()
	if len(names) != 2 || names[0] != "types" || names[1] != "identity" {
		t.Errorf("names = %v", names)
	}
	bad := Mutation{Kind: AddNode, Node: model.Node{ID: 9, Label: "Person", Props: model.Props("name", "ada")}}
	if err := s.Check(g, bad); !errors.Is(err, model.ErrConstraint) {
		t.Errorf("set check: %v", err)
	}
	good := Mutation{Kind: AddNode, Node: model.Node{ID: 9, Label: "Person", Props: model.Props("name", "bob")}}
	if err := s.Check(g, good); err != nil {
		t.Errorf("set check good: %v", err)
	}
}

func TestEdgeOverlayView(t *testing.T) {
	g := memgraph.New()
	a, _ := g.AddNode("N", nil)
	b, _ := g.AddNode("N", nil)
	g.AddEdge("e", a, b, nil)
	ov := &edgeOverlay{Graph: g, extra: model.Edge{ID: 99, Label: "x", From: b, To: a}}

	if ov.Size() != 2 {
		t.Errorf("overlay size = %d", ov.Size())
	}
	e, err := ov.Edge(99)
	if err != nil || e.Label != "x" {
		t.Errorf("overlay edge: %+v %v", e, err)
	}
	if _, err := ov.Edge(1); err != nil {
		t.Errorf("base edge: %v", err)
	}
	n := 0
	ov.Edges(func(model.Edge) bool { n++; return true })
	if n != 2 {
		t.Errorf("overlay edges visited %d", n)
	}
	d, _ := ov.Degree(a, model.Both)
	if d != 2 {
		t.Errorf("overlay degree = %d", d)
	}
	outB, _ := ov.Degree(b, model.Out)
	if outB != 1 {
		t.Errorf("overlay out degree b = %d", outB)
	}
	// Neighbors sees the overlay edge.
	seen := false
	ov.Neighbors(b, model.Out, func(e model.Edge, n model.Node) bool {
		if e.ID == 99 && n.ID == a {
			seen = true
		}
		return true
	})
	if !seen {
		t.Error("overlay edge missing from Neighbors")
	}
}
