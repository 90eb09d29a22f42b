package diff

import (
	"slices"
	"testing"

	"gdbm/internal/model"
)

// IDAdjacency loads a small graph with parallel labels, a two-cycle and a
// self-loop into g and checks that g answers model.IDAdjacency for every
// node, direction and label filter with exactly the (edge, far node) pairs
// Neighbors enumerates, in its order. It fails t if every list was empty,
// since an empty graph would pass vacuously.
func IDAdjacency(t *testing.T, g interface {
	model.Graph
	model.IDAdjacency
	AddNode(label string, props model.Properties) (model.NodeID, error)
	AddEdge(label string, from, to model.NodeID, props model.Properties) (model.EdgeID, error)
}) {
	t.Helper()
	var ids [3]model.NodeID
	for i := range ids {
		var err error
		if ids[i], err = g.AddNode("N", nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []struct {
		label    string
		from, to int
	}{{"a", 0, 1}, {"b", 0, 2}, {"a", 2, 0}, {"b", 1, 0}, {"a", 0, 0}} {
		if _, err := g.AddEdge(e.label, ids[e.from], ids[e.to], nil); err != nil {
			t.Fatal(err)
		}
	}
	nonEmpty := false
	for _, id := range ids {
		for _, dir := range []model.Direction{model.Out, model.In, model.Both} {
			for _, label := range []string{"", "a"} {
				var want []model.NeighborID
				if err := g.Neighbors(id, dir, func(e model.Edge, n model.Node) bool {
					if label == "" || e.Label == label {
						want = append(want, model.NeighborID{Edge: e.ID, Node: n.ID})
					}
					return true
				}); err != nil {
					t.Fatal(err)
				}
				got, handled, err := g.AppendNeighborIDs(nil, id, dir, label)
				if err != nil || !handled || !slices.Equal(got, want) {
					t.Fatalf("node %d %v %q: pairs %v handled %v (%v), Neighbors %v", id, dir, label, got, handled, err, want)
				}
				nonEmpty = nonEmpty || len(got) > 0
			}
		}
	}
	if !nonEmpty {
		t.Fatal("every adjacency list was empty")
	}
}
