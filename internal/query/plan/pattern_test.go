package plan

import (
	"context"
	"errors"
	"testing"

	"gdbm/internal/algo/algotest"
	"gdbm/internal/memgraph"
	"gdbm/internal/model"
)

// socialGraph builds: ada-knows->bob-knows->cam, ada-works->org,
// cam-works->org, every node labelled P.
func socialGraph(t *testing.T) (*memgraph.Graph, map[string]model.NodeID) {
	t.Helper()
	g := memgraph.New()
	ids := map[string]model.NodeID{}
	for _, n := range []string{"ada", "bob", "cam", "org"} {
		id, err := g.AddNode("P", model.Props("name", n))
		if err != nil {
			t.Fatal(err)
		}
		ids[n] = id
	}
	for _, e := range [][3]string{{"knows", "ada", "bob"}, {"knows", "bob", "cam"}, {"works", "ada", "org"}, {"works", "cam", "org"}} {
		if _, err := g.AddEdge(e[0], ids[e[1]], ids[e[2]], nil); err != nil {
			t.Fatal(err)
		}
	}
	return g, ids
}

func matchAll(t *testing.T, g model.Graph, nodes []PatternNode, edges []PatternEdge, limit int) []Match {
	t.Helper()
	p, err := NewPattern(nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	m, err := MatchPattern(context.Background(), g, p, limit)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPatternEmptyMatchesNothing(t *testing.T) {
	g, _ := socialGraph(t)
	if m := matchAll(t, g, nil, nil, 0); len(m) != 0 {
		t.Errorf("empty pattern: %v", m)
	}
}

func TestPatternSingleNodeByLabel(t *testing.T) {
	g := memgraph.New()
	g.AddNode("Person", nil)
	g.AddNode("Person", nil)
	g.AddNode("City", nil)
	if m := matchAll(t, g, []PatternNode{{Var: "x", Label: "Person"}}, nil, 0); len(m) != 2 {
		t.Errorf("matches = %v", m)
	}
}

func TestPatternPropConstraint(t *testing.T) {
	g, ids := socialGraph(t)
	m := matchAll(t, g, []PatternNode{{Var: "x", Props: model.Props("name", "bob")}}, nil, 0)
	if len(m) != 1 || m[0]["x"] != ids["bob"] {
		t.Errorf("matches = %v", m)
	}
}

func TestPatternEdge(t *testing.T) {
	g, ids := socialGraph(t)
	m := matchAll(t, g,
		[]PatternNode{{Var: "a"}, {Var: "b"}},
		[]PatternEdge{{From: 0, To: 1, Label: "knows"}}, 0)
	if len(m) != 2 {
		t.Fatalf("knows matches = %d: %v", len(m), m)
	}
	want := map[model.NodeID]model.NodeID{ids["ada"]: ids["bob"], ids["bob"]: ids["cam"]}
	for _, match := range m {
		if want[match["a"]] != match["b"] {
			t.Errorf("unexpected match %v", match)
		}
	}
}

func TestPatternTriangleInjective(t *testing.T) {
	g := memgraph.New()
	a, _ := g.AddNode("N", nil)
	b, _ := g.AddNode("N", nil)
	c, _ := g.AddNode("N", nil)
	g.AddEdge("e", a, b, nil)
	g.AddEdge("e", b, c, nil)
	g.AddEdge("e", c, a, nil)
	m := matchAll(t, g,
		[]PatternNode{{Var: "x"}, {Var: "y"}, {Var: "z"}},
		[]PatternEdge{{From: 0, To: 1, Label: "e"}, {From: 1, To: 2, Label: "e"}, {From: 2, To: 0, Label: "e"}}, 0)
	// Directed triangle has 3 rotations.
	if len(m) != 3 {
		t.Errorf("triangle matches = %d", len(m))
	}
	for _, match := range m {
		if match["x"] == match["y"] || match["y"] == match["z"] || match["x"] == match["z"] {
			t.Errorf("non-injective match %v", match)
		}
	}
}

func TestPatternNoSelfMatchOnTwoCycle(t *testing.T) {
	// a <-> b: pattern x->y->x must not map x and y to the same node.
	g := memgraph.New()
	a, _ := g.AddNode("N", nil)
	b, _ := g.AddNode("N", nil)
	g.AddEdge("e", a, b, nil)
	g.AddEdge("e", b, a, nil)
	m := matchAll(t, g,
		[]PatternNode{{Var: "x"}, {Var: "y"}},
		[]PatternEdge{{From: 0, To: 1}, {From: 1, To: 0}}, 0)
	if len(m) != 2 {
		t.Errorf("2-cycle matches = %d", len(m))
	}
}

func TestPatternLimit(t *testing.T) {
	g := memgraph.New()
	hub, _ := g.AddNode("Hub", nil)
	for i := 0; i < 10; i++ {
		leaf, _ := g.AddNode("Leaf", nil)
		g.AddEdge("spoke", hub, leaf, nil)
	}
	m := matchAll(t, g,
		[]PatternNode{{Var: "h", Label: "Hub"}, {Var: "l", Label: "Leaf"}},
		[]PatternEdge{{From: 0, To: 1, Label: "spoke"}}, 3)
	if len(m) != 3 {
		t.Errorf("limited matches = %d", len(m))
	}
}

func TestPatternDisconnectedComponents(t *testing.T) {
	g := memgraph.New()
	g.AddNode("A", nil)
	g.AddNode("B", nil)
	if m := matchAll(t, g, []PatternNode{{Var: "x", Label: "A"}, {Var: "y", Label: "B"}}, nil, 0); len(m) != 1 {
		t.Errorf("cross product match = %v", m)
	}
}

func TestPatternAnonymousVars(t *testing.T) {
	g, _ := socialGraph(t)
	m := matchAll(t, g,
		[]PatternNode{{}, {}},
		[]PatternEdge{{From: 0, To: 1, Label: "works"}}, 0)
	if len(m) != 2 {
		t.Fatalf("matches = %v", m)
	}
	if _, ok := m[0]["_0"]; !ok {
		t.Error("anonymous var _0 missing")
	}
}

// TestPatternParallelEdgesMatchOnce: a match is an assignment of nodes, so
// x->y over two parallel edges is one match, not one per edge.
func TestPatternParallelEdgesMatchOnce(t *testing.T) {
	g := memgraph.New()
	a, _ := g.AddNode("N", nil)
	b, _ := g.AddNode("N", nil)
	g.AddEdge("e", a, b, nil)
	g.AddEdge("e", a, b, nil)
	m := matchAll(t, g,
		[]PatternNode{{Var: "x"}, {Var: "y"}},
		[]PatternEdge{{From: 0, To: 1}}, 0)
	if len(m) != 1 || m[0]["x"] != a || m[0]["y"] != b {
		t.Errorf("matches = %v, want one x=%d y=%d", m, a, b)
	}
}

// TestMatchPatternPropagatesScanError: a failing read anywhere in the
// search surfaces as the error, never as a silently short answer.
func TestMatchPatternPropagatesScanError(t *testing.T) {
	p, err := NewPattern(
		[]PatternNode{{Label: "P"}, {Label: "Q"}},
		[]PatternEdge{{From: 0, To: 1, Label: "a"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	// Many P-a->Q embeddings, so every budget below runs out mid-search.
	g := memgraph.New()
	for i := 0; i < 8; i++ {
		u, _ := g.AddNode("P", nil)
		v, _ := g.AddNode("Q", nil)
		g.AddEdge("a", u, v, nil)
	}
	// Budget 0 fails the node scan itself; larger budgets fail inside the
	// expansion.
	for _, budget := range []int{0, 2, 5} {
		if _, err := MatchPattern(context.Background(), algotest.NewFlaky(g, budget), p, 0); !errors.Is(err, algotest.ErrInjected) {
			t.Errorf("budget=%d: err = %v, want injected", budget, err)
		}
	}
}

// neighborCounter is a bare graph with id adjacency that counts the calls
// to its Neighbors.
type neighborCounter struct {
	*memgraph.Graph
	calls int
}

func (g *neighborCounter) Neighbors(id model.NodeID, dir model.Direction, fn func(model.Edge, model.Node) bool) error {
	g.calls++
	return g.Graph.Neighbors(id, dir, fn)
}

// TestBareGraphWalksIDAdjacency checks that wrapping a bare graph for
// MatchPattern and MatchPath keeps its id adjacency: no Neighbors call.
func TestBareGraphWalksIDAdjacency(t *testing.T) {
	mg, ids := socialGraph(t)
	g := &neighborCounter{Graph: mg}
	m := matchAll(t, g, []PatternNode{{Label: "P"}, {Label: "P"}}, []PatternEdge{{From: 0, To: 1, Label: "knows"}}, 0)
	if len(m) != 2 {
		t.Fatalf("knows matches = %v", m)
	}
	p, err := CompilePathExpr("knows*")
	if err != nil {
		t.Fatal(err)
	}
	for _, sem := range []PathSemantics{Reachability, SimplePaths} {
		got, err := MatchPath(context.Background(), g, p, ids["ada"], sem)
		if err != nil || len(got) != 3 {
			t.Fatalf("semantics %d: reached %v, %v", sem, got, err)
		}
	}
	if g.calls != 0 {
		t.Errorf("%d Neighbors calls, want none", g.calls)
	}
}

func TestPatternValidation(t *testing.T) {
	_, err := NewPattern(
		[]PatternNode{{Var: "a"}},
		[]PatternEdge{{From: 0, To: 5}},
	)
	if err == nil {
		t.Error("out-of-range edge endpoint should fail")
	}
	_, err = NewPattern([]PatternNode{{Var: "a"}, {Var: "a"}}, nil)
	if err == nil {
		t.Error("a repeated variable should fail")
	}
	_, err = NewPattern([]PatternNode{{Var: "_1"}, {}}, nil)
	if err == nil {
		t.Error("a variable equal to an anonymous node's name should fail")
	}
	p, err := NewPattern([]PatternNode{{Var: "a"}, {}, {}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Var(0) != "a" || p.Var(1) != "_1" || p.Var(2) != "_2" {
		t.Errorf("names = %q %q %q", p.Var(0), p.Var(1), p.Var(2))
	}
}
