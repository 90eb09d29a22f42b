package algo

import (
	"context"
	"errors"

	"testing"

	"gdbm/internal/memgraph"
	"gdbm/internal/model"
)

// chain builds a -> b -> c -> ... with label "next".
func chain(t *testing.T, n int) (*memgraph.Graph, []model.NodeID) {
	t.Helper()
	g := memgraph.New()
	ids := make([]model.NodeID, n)
	for i := range ids {
		ids[i], _ = g.AddNode("N", model.Props("i", i))
	}
	for i := 0; i+1 < n; i++ {
		if _, err := g.AddEdge("next", ids[i], ids[i+1], nil); err != nil {
			t.Fatal(err)
		}
	}
	return g, ids
}

func TestAdjacent(t *testing.T) {
	g, ids := chain(t, 3)
	ok, err := Adjacent(g, ids[0], ids[1], model.Out)
	if err != nil || !ok {
		t.Errorf("0->1 out: %v %v", ok, err)
	}
	ok, _ = Adjacent(g, ids[1], ids[0], model.Out)
	if ok {
		t.Error("1->0 out should be false")
	}
	ok, _ = Adjacent(g, ids[1], ids[0], model.Both)
	if !ok {
		t.Error("1-0 both should be true")
	}
	ok, _ = Adjacent(g, ids[0], ids[2], model.Both)
	if ok {
		t.Error("0-2 not adjacent")
	}
	if _, err := Adjacent(g, 999, ids[0], model.Out); !errors.Is(err, model.ErrNotFound) {
		t.Errorf("missing node: %v", err)
	}
}

func TestEdgesAdjacent(t *testing.T) {
	g, _ := chain(t, 4) // edges 1: 0-1, 2: 1-2, 3: 2-3
	ok, err := EdgesAdjacent(g, 1, 2)
	if err != nil || !ok {
		t.Errorf("edges 1,2: %v %v", ok, err)
	}
	ok, _ = EdgesAdjacent(g, 1, 3)
	if ok {
		t.Error("edges 1,3 share no node")
	}
	if _, err := EdgesAdjacent(g, 1, 99); !errors.Is(err, model.ErrNotFound) {
		t.Errorf("missing edge: %v", err)
	}
}

func TestNeighborhood(t *testing.T) {
	g, ids := chain(t, 6)
	n1, err := Neighborhood(g, ids[0], 1, model.Out)
	if err != nil || len(n1) != 1 || n1[0] != ids[1] {
		t.Errorf("1-hood = %v, %v", n1, err)
	}
	n3, _ := Neighborhood(g, ids[0], 3, model.Out)
	if len(n3) != 3 {
		t.Errorf("3-hood = %v", n3)
	}
	nAll, _ := Neighborhood(g, ids[2], 10, model.Both)
	if len(nAll) != 5 {
		t.Errorf("full both-hood size = %d", len(nAll))
	}
	if _, err := Neighborhood(g, 999, 1, model.Out); !errors.Is(err, model.ErrNotFound) {
		t.Errorf("missing node: %v", err)
	}
	n0, _ := Neighborhood(g, ids[0], 0, model.Out)
	if len(n0) != 0 {
		t.Errorf("0-hood = %v", n0)
	}
}

func TestBFSDepths(t *testing.T) {
	g, ids := chain(t, 5)
	depths := map[model.NodeID]int{}
	if err := BFS(g, ids[0], model.Out, func(id model.NodeID, d int) bool {
		depths[id] = d
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if depths[id] != i {
			t.Errorf("depth[%d] = %d", i, depths[id])
		}
	}
	// Early stop.
	n := 0
	BFS(g, ids[0], model.Out, func(model.NodeID, int) bool { n++; return n < 2 })
	if n != 2 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestReachable(t *testing.T) {
	g, ids := chain(t, 4)
	ok, _ := Reachable(g, ids[0], ids[3], model.Out)
	if !ok {
		t.Error("0 should reach 3")
	}
	ok, _ = Reachable(g, ids[3], ids[0], model.Out)
	if ok {
		t.Error("3 should not reach 0 out-wards")
	}
	ok, _ = Reachable(g, ids[3], ids[0], model.Both)
	if !ok {
		t.Error("3 reaches 0 undirected")
	}
	ok, _ = Reachable(g, ids[2], ids[2], model.Out)
	if !ok {
		t.Error("self reachability")
	}
	if _, err := Reachable(g, 999, ids[0], model.Out); !errors.Is(err, model.ErrNotFound) {
		t.Errorf("missing: %v", err)
	}
}

func TestFixedLengthPaths(t *testing.T) {
	// Diamond: a->b->d, a->c->d plus direct a->d.
	g := memgraph.New()
	a, _ := g.AddNode("N", nil)
	b, _ := g.AddNode("N", nil)
	c, _ := g.AddNode("N", nil)
	d, _ := g.AddNode("N", nil)
	g.AddEdge("e", a, b, nil)
	g.AddEdge("e", a, c, nil)
	g.AddEdge("e", b, d, nil)
	g.AddEdge("e", c, d, nil)
	g.AddEdge("e", a, d, nil)

	p2, err := FixedLengthPaths(g, a, d, 2, model.Out, 0)
	if err != nil || len(p2) != 2 {
		t.Fatalf("length-2 paths = %d, %v", len(p2), err)
	}
	p1, _ := FixedLengthPaths(g, a, d, 1, model.Out, 0)
	if len(p1) != 1 {
		t.Errorf("length-1 paths = %d", len(p1))
	}
	p3, _ := FixedLengthPaths(g, a, d, 3, model.Out, 0)
	if len(p3) != 0 {
		t.Errorf("length-3 paths = %d", len(p3))
	}
	// Limit.
	lim, _ := FixedLengthPaths(g, a, d, 2, model.Out, 1)
	if len(lim) != 1 {
		t.Errorf("limited paths = %d", len(lim))
	}
	// Path structure is consistent.
	for _, p := range p2 {
		if p.Len() != 2 || len(p.Nodes) != 3 || p.Nodes[0] != a || p.Nodes[2] != d {
			t.Errorf("bad path %+v", p)
		}
	}
}

func TestShortestPath(t *testing.T) {
	g, ids := chain(t, 5)
	// Add a shortcut 0 -> 3.
	g.AddEdge("skip", ids[0], ids[3], nil)
	p, err := ShortestPath(g, ids[0], ids[4], model.Out)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 {
		t.Errorf("shortest len = %d, want 2 (via shortcut)", p.Len())
	}
	if p.Nodes[0] != ids[0] || p.Nodes[len(p.Nodes)-1] != ids[4] {
		t.Errorf("endpoints wrong: %v", p.Nodes)
	}
	// Self path.
	self, _ := ShortestPath(g, ids[2], ids[2], model.Out)
	if self.Len() != 0 {
		t.Errorf("self path len = %d", self.Len())
	}
	// Disconnected.
	iso, _ := g.AddNode("iso", nil)
	if _, err := ShortestPath(g, ids[0], iso, model.Out); !errors.Is(err, model.ErrNotFound) {
		t.Errorf("disconnected: %v", err)
	}
}

func TestWeightedShortestPath(t *testing.T) {
	g := memgraph.New()
	a, _ := g.AddNode("N", nil)
	b, _ := g.AddNode("N", nil)
	c, _ := g.AddNode("N", nil)
	g.AddEdge("e", a, b, model.Props("w", 10.0))
	g.AddEdge("e", a, c, model.Props("w", 1.0))
	g.AddEdge("e", c, b, model.Props("w", 2.0))
	p, w, err := WeightedShortestPath(g, a, b, "w", model.Out)
	if err != nil {
		t.Fatal(err)
	}
	if w != 3 {
		t.Errorf("weight = %v, want 3", w)
	}
	if p.Len() != 2 {
		t.Errorf("path len = %d", p.Len())
	}
	// Missing weights default to 1.
	g2, ids := chain(t, 3)
	_, w2, _ := WeightedShortestPath(g2, ids[0], ids[2], "w", model.Out)
	if w2 != 2 {
		t.Errorf("default weight total = %v", w2)
	}
	// Disconnected.
	iso, _ := g.AddNode("iso", nil)
	if _, _, err := WeightedShortestPath(g, a, iso, "w", model.Out); !errors.Is(err, model.ErrNotFound) {
		t.Errorf("disconnected: %v", err)
	}
}

func TestDegreesStats(t *testing.T) {
	g, _ := chain(t, 4) // degrees (both): 1,2,2,1
	s, err := Degrees(g, model.Both)
	if err != nil {
		t.Fatal(err)
	}
	if s.Min != 1 || s.Max != 2 || s.Avg != 1.5 {
		t.Errorf("stats = %+v", s)
	}
	empty := memgraph.New()
	es, _ := Degrees(empty, model.Both)
	if es.Min != 0 || es.Max != 0 || es.Avg != 0 {
		t.Errorf("empty stats = %+v", es)
	}
}

func TestDistanceEccentricityDiameter(t *testing.T) {
	g, ids := chain(t, 5)
	d, err := Distance(g, ids[0], ids[3], model.Out)
	if err != nil || d != 3 {
		t.Errorf("distance = %d, %v", d, err)
	}
	ecc, _ := eccentricityCtx(context.Background(), g, ids[0], model.Out)
	if ecc != 4 {
		t.Errorf("eccentricity = %d", ecc)
	}
	dia, _ := Diameter(g, model.Both)
	if dia != 4 {
		t.Errorf("diameter = %d", dia)
	}
	diaOut, _ := Diameter(g, model.Out)
	if diaOut != 4 {
		t.Errorf("directed diameter = %d", diaOut)
	}
}

func TestAggregates(t *testing.T) {
	g := memgraph.New()
	g.AddNode("P", model.Props("age", 10))
	g.AddNode("P", model.Props("age", 20))
	g.AddNode("P", model.Props("age", 30))
	g.AddNode("Q", model.Props("age", 99))

	cases := []struct {
		kind AggKind
		want model.Value
	}{
		{AggCount, model.Int(3)},
		{AggSum, model.Float(60)},
		{AggAvg, model.Float(20)},
		{AggMin, model.Int(10)},
		{AggMax, model.Int(30)},
	}
	for _, c := range cases {
		got, err := AggregateNodeProp(g, "P", "age", c.kind)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(c.want) {
			t.Errorf("%v = %v, want %v", c.kind, got, c.want)
		}
	}
	// All labels.
	all, _ := AggregateNodeProp(g, "", "age", AggCount)
	if v, _ := all.AsInt(); v != 4 {
		t.Errorf("count all = %v", all)
	}
	// Avg of nothing is null.
	none, _ := AggregateNodeProp(g, "Ghost", "age", AggAvg)
	if !none.IsNull() {
		t.Errorf("avg of none = %v", none)
	}
}

func TestAggKindString(t *testing.T) {
	for k, want := range map[AggKind]string{AggCount: "count", AggSum: "sum", AggAvg: "avg", AggMin: "min", AggMax: "max"} {
		if k.String() != want {
			t.Errorf("%d: %s", k, k.String())
		}
	}
}
