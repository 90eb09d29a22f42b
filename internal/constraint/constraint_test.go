package constraint

import (
	"errors"
	"testing"

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
