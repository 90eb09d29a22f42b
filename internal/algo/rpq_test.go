package algo_test

// Regular path queries run on the planner's path operator
// (plan.MatchPath); these are its answers on this package's fixtures.

import (
	"context"
	"testing"

	"gdbm/internal/memgraph"
	"gdbm/internal/model"
	"gdbm/internal/query/plan"
)

// paths evaluates a compiled expression from start under sem.
func paths(p *plan.PathExpr, g model.Graph, start model.NodeID, sem plan.PathSemantics) ([]model.NodeID, error) {
	return plan.MatchPath(context.Background(), g, p, start, sem)
}

// socialGraph: ada -knows-> bob -knows-> cam; ada -works-> org; cam -works-> org.
func socialGraph(t *testing.T) (*memgraph.Graph, map[string]model.NodeID) {
	t.Helper()
	g := memgraph.New()
	ids := map[string]model.NodeID{}
	for _, n := range []string{"ada", "bob", "cam", "org"} {
		id, _ := g.AddNode("P", model.Props("name", n))
		ids[n] = id
	}
	g.AddEdge("knows", ids["ada"], ids["bob"], nil)
	g.AddEdge("knows", ids["bob"], ids["cam"], nil)
	g.AddEdge("works", ids["ada"], ids["org"], nil)
	g.AddEdge("works", ids["cam"], ids["org"], nil)
	return g, ids
}

func evalSet(t *testing.T, g model.Graph, start model.NodeID, expr string) map[model.NodeID]bool {
	t.Helper()
	pe, err := plan.CompilePathExpr(expr)
	if err != nil {
		t.Fatalf("compile %q: %v", expr, err)
	}
	nodes, err := paths(pe, g, start, plan.Reachability)
	if err != nil {
		t.Fatalf("eval %q: %v", expr, err)
	}
	set := map[model.NodeID]bool{}
	for _, n := range nodes {
		set[n] = true
	}
	return set
}

func TestRPQSingleLabel(t *testing.T) {
	g, ids := socialGraph(t)
	got := evalSet(t, g, ids["ada"], "knows")
	if len(got) != 1 || !got[ids["bob"]] {
		t.Errorf("knows from ada = %v", got)
	}
}

func TestRPQConcat(t *testing.T) {
	g, ids := socialGraph(t)
	got := evalSet(t, g, ids["ada"], "knows/knows")
	if len(got) != 1 || !got[ids["cam"]] {
		t.Errorf("knows/knows = %v", got)
	}
}

func TestRPQAlternation(t *testing.T) {
	g, ids := socialGraph(t)
	got := evalSet(t, g, ids["ada"], "knows|works")
	if len(got) != 2 || !got[ids["bob"]] || !got[ids["org"]] {
		t.Errorf("knows|works = %v", got)
	}
}

func TestRPQStar(t *testing.T) {
	g, ids := socialGraph(t)
	got := evalSet(t, g, ids["ada"], "knows*")
	// Star includes the empty word: ada itself.
	if len(got) != 3 || !got[ids["ada"]] || !got[ids["bob"]] || !got[ids["cam"]] {
		t.Errorf("knows* = %v", got)
	}
}

func TestRPQPlusOption(t *testing.T) {
	g, ids := socialGraph(t)
	plus := evalSet(t, g, ids["ada"], "knows+")
	if plus[ids["ada"]] || len(plus) != 2 {
		t.Errorf("knows+ = %v", plus)
	}
	opt := evalSet(t, g, ids["ada"], "knows?")
	if len(opt) != 2 || !opt[ids["ada"]] || !opt[ids["bob"]] {
		t.Errorf("knows? = %v", opt)
	}
}

func TestRPQInverse(t *testing.T) {
	g, ids := socialGraph(t)
	// Colleagues of ada: works then inverse works.
	got := evalSet(t, g, ids["ada"], "works/<works")
	if !got[ids["cam"]] || !got[ids["ada"]] {
		t.Errorf("works/<works = %v", got)
	}
}

func TestRPQGroupingAndCycle(t *testing.T) {
	g := memgraph.New()
	a, _ := g.AddNode("N", nil)
	b, _ := g.AddNode("N", nil)
	g.AddEdge("x", a, b, nil)
	g.AddEdge("y", b, a, nil)
	pe, err := plan.CompilePathExpr("(x/y)*")
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := paths(pe, g, a, plan.Reachability)
	if err != nil {
		t.Fatal(err)
	}
	// Cycle closure terminates and returns exactly {a}.
	if len(nodes) != 1 || nodes[0] != a {
		t.Errorf("(x/y)* from a = %v", nodes)
	}
	// x/(y/x)* reaches b.
	pe2, _ := plan.CompilePathExpr("x/(y/x)*")
	nodes2, _ := paths(pe2, g, a, plan.Reachability)
	if len(nodes2) != 1 || nodes2[0] != b {
		t.Errorf("x/(y/x)* = %v", nodes2)
	}
}

func TestRPQParseErrors(t *testing.T) {
	for _, expr := range []string{"", "(a", "a|", "a/", "*", "a)b", "<"} {
		if _, err := plan.CompilePathExpr(expr); err == nil {
			t.Errorf("compile %q should fail", expr)
		}
	}
}

func TestRPQMissingStart(t *testing.T) {
	g, _ := socialGraph(t)
	pe, _ := plan.CompilePathExpr("knows")
	if _, err := paths(pe, g, 999, plan.Reachability); err == nil {
		t.Error("missing start should error")
	}
	if _, err := paths(pe, g, 999, plan.SimplePaths); err == nil {
		t.Error("simple-path missing start should error")
	}
}

// On an acyclic graph reachability and simple-path semantics agree; use
// that for differential testing.
func TestRPQProductVsNaive(t *testing.T) {
	g, ids := socialGraph(t)
	// "works/<works" is excluded: its match revisits the start node, which
	// the simple-path semantics forbids but reachability semantics allows.
	for _, expr := range []string{"knows", "knows/knows", "knows|works", "knows*", "knows+", "knows?/works"} {
		pe, err := plan.CompilePathExpr(expr)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := paths(pe, g, ids["ada"], plan.Reachability)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := paths(pe, g, ids["ada"], plan.SimplePaths)
		if err != nil {
			t.Fatal(err)
		}
		fs, ss := map[model.NodeID]bool{}, map[model.NodeID]bool{}
		for _, n := range fast {
			fs[n] = true
		}
		for _, n := range slow {
			ss[n] = true
		}
		if len(fs) != len(ss) {
			t.Errorf("%q: reachability %v vs simple paths %v", expr, fast, slow)
			continue
		}
		for n := range fs {
			if !ss[n] {
				t.Errorf("%q: reachability has %d, simple paths do not", expr, n)
			}
		}
	}
}

func TestRPQStringRoundTrip(t *testing.T) {
	pe, _ := plan.CompilePathExpr("a/(b|c)*")
	if pe.String() != "a/(b|c)*" {
		t.Errorf("String() = %q", pe.String())
	}
}
