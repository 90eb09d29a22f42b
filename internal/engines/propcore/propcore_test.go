package propcore

import (
	"errors"
	"reflect"
	"testing"

	"gdbm/internal/constraint"
	"gdbm/internal/index"
	"gdbm/internal/memgraph"
	"gdbm/internal/model"
)

func newCore(t *testing.T) *Core {
	t.Helper()
	return New(memgraph.New())
}

func TestDelegatedReads(t *testing.T) {
	c := newCore(t)
	a, _ := c.AddNode("P", model.Props("name", "ada"))
	b, _ := c.AddNode("P", nil)
	eid, _ := c.AddEdge("knows", a, b, nil)
	if c.Order() != 2 || c.Size() != 1 {
		t.Fatalf("order=%d size=%d", c.Order(), c.Size())
	}
	if _, err := c.Node(a); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Edge(eid); err != nil {
		t.Fatal(err)
	}
	n := 0
	c.Nodes(func(model.Node) bool { n++; return true })
	if n != 2 {
		t.Errorf("nodes visited %d", n)
	}
	n = 0
	c.Edges(func(model.Edge) bool { n++; return true })
	if n != 1 {
		t.Errorf("edges visited %d", n)
	}
	d, _ := c.Degree(a, model.Out)
	if d != 1 {
		t.Errorf("degree = %d", d)
	}
}

func TestConstraintsVetoMutations(t *testing.T) {
	c := newCore(t)
	c.Cons.Add(constraint.Identity{Label: "P", Prop: "name"})
	if _, err := c.AddNode("P", model.Props("name", "ada")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddNode("P", model.Props("name", "ada")); !errors.Is(err, model.ErrConstraint) {
		t.Errorf("duplicate identity: %v", err)
	}
	// Referential: node with edges cannot be removed.
	c2 := newCore(t)
	c2.Cons.Add(constraint.Referential{})
	a, _ := c2.AddNode("N", nil)
	b, _ := c2.AddNode("N", nil)
	c2.AddEdge("e", a, b, nil)
	if err := c2.RemoveNode(a); !errors.Is(err, model.ErrConstraint) {
		t.Errorf("remove connected: %v", err)
	}
}

func TestSetNodePropValidated(t *testing.T) {
	c := newCore(t)
	sch := c.Schema()
	sch.DefineNodeType(model.NodeType{Name: "P", Properties: []model.PropertyType{
		{Name: "age", Kind: model.KindInt},
	}})
	c.Cons.Add(constraint.Types{Schema: sch})
	id, err := c.AddNode("P", model.Props("age", 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetNodeProp(id, "age", model.Str("old")); !errors.Is(err, model.ErrConstraint) {
		t.Errorf("wrong kind: %v", err)
	}
	if err := c.SetNodeProp(id, "age", model.Int(4)); err != nil {
		t.Fatal(err)
	}
	n, _ := c.Node(id)
	if v, _ := n.Props.Get("age").AsInt(); v != 4 {
		t.Errorf("age = %v", n.Props)
	}
}

func TestIndexMaintenanceThroughMutations(t *testing.T) {
	c := newCore(t)
	idx, err := c.Idx.Create(index.Nodes, "name", index.KindHash)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c.AddNode("P", model.Props("name", "ada"))
	if idx.Count(model.Str("ada")) != 1 {
		t.Error("insert not indexed")
	}
	c.SetNodeProp(a, "name", model.Str("lovelace"))
	if idx.Count(model.Str("ada")) != 0 || idx.Count(model.Str("lovelace")) != 1 {
		t.Error("update not re-indexed")
	}
	c.RemoveNode(a)
	if idx.Count(model.Str("lovelace")) != 0 {
		t.Error("delete not unindexed")
	}
}

func TestEdgeIndexMaintenance(t *testing.T) {
	c := newCore(t)
	idx, _ := c.Idx.Create(index.Edges, "", index.KindHash)
	a, _ := c.AddNode("N", nil)
	b, _ := c.AddNode("N", nil)
	eid, _ := c.AddEdge("knows", a, b, nil)
	if idx.Count(model.Str("knows")) != 1 {
		t.Error("edge label not indexed")
	}
	c.RemoveEdge(eid)
	if idx.Count(model.Str("knows")) != 0 {
		t.Error("edge delete not unindexed")
	}
	// Removing a node cascades edge index entries too.
	eid2, _ := c.AddEdge("knows", a, b, nil)
	_ = eid2
	c.RemoveNode(a)
	if idx.Count(model.Str("knows")) != 0 {
		t.Error("cascade delete not unindexed")
	}
}

func TestIndexedNodesPlanSource(t *testing.T) {
	c := newCore(t)
	// No index: not handled.
	handled, err := c.IndexedNodes("P", "name", model.Str("x"), func(model.Node) bool { return true })
	if err != nil || handled {
		t.Errorf("no index: handled=%v err=%v", handled, err)
	}
	c.Idx.Create(index.Nodes, "name", index.KindHash)
	c.Idx.Create(index.Nodes, "", index.KindHash)
	c.AddNode("P", model.Props("name", "ada"))
	c.AddNode("Q", model.Props("name", "ada"))

	var got []model.Node
	handled, err = c.IndexedNodes("P", "name", model.Str("ada"), func(n model.Node) bool {
		got = append(got, n)
		return true
	})
	if err != nil || !handled {
		t.Fatalf("handled=%v err=%v", handled, err)
	}
	if len(got) != 1 || got[0].Label != "P" {
		t.Errorf("label filter through index failed: %v", got)
	}
	// Label-only lookup.
	n := 0
	handled, _ = c.IndexedNodes("Q", "", model.Null(), func(model.Node) bool { n++; return true })
	if !handled || n != 1 {
		t.Errorf("label index: handled=%v n=%d", handled, n)
	}
}

func TestLoaderSurface(t *testing.T) {
	c := newCore(t)
	a, err := c.LoadNode("N", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := c.LoadNode("N", nil)
	if _, err := c.LoadEdge("e", a, b, nil); err != nil {
		t.Fatal(err)
	}
	if c.Size() != 1 {
		t.Errorf("size = %d", c.Size())
	}
}

// TestAppendNeighborIDsForwards: a Core over a store with id adjacency
// answers it exactly as its own Neighbors enumerates; over a store without,
// it reports unhandled and leaves the buffer alone.
func TestAppendNeighborIDsForwards(t *testing.T) {
	c := newCore(t)
	a, _ := c.AddNode("P", nil)
	b, _ := c.AddNode("P", nil)
	for _, e := range []struct {
		label    string
		from, to model.NodeID
	}{{"knows", a, b}, {"knows", a, b}, {"likes", b, a}, {"knows", a, a}} {
		if _, err := c.AddEdge(e.label, e.from, e.to, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, dir := range []model.Direction{model.Out, model.In, model.Both} {
		for _, label := range []string{"", "knows"} {
			var want []model.NeighborID
			if err := c.Neighbors(a, dir, func(e model.Edge, n model.Node) bool {
				if label == "" || e.Label == label {
					want = append(want, model.NeighborID{Edge: e.ID, Node: n.ID})
				}
				return true
			}); err != nil {
				t.Fatal(err)
			}
			got, handled, err := c.AppendNeighborIDs(nil, a, dir, label)
			if err != nil || !handled || !reflect.DeepEqual(got, want) {
				t.Errorf("%v %q: got %v (handled %v, err %v), want %v", dir, label, got, handled, err, want)
			}
		}
	}
	if _, _, err := c.AppendNeighborIDs(nil, 9999, model.Both, ""); !errors.Is(err, model.ErrNotFound) {
		t.Errorf("missing node: err = %v, want ErrNotFound", err)
	}
	// Embedding the interface hides the store's capability.
	bare := New(struct{ model.MutableGraph }{memgraph.New()})
	if got, handled, err := bare.AppendNeighborIDs(nil, 1, model.Both, ""); handled || err != nil || got != nil {
		t.Errorf("capability-less store: got %v, handled %v, err %v", got, handled, err)
	}
}
