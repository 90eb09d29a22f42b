package algo_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gdbm/internal/algo"
	"gdbm/internal/memgraph"
	"gdbm/internal/model"
	"gdbm/internal/query/plan"
)

// randomDAG builds an acyclic graph: edges only go from lower to higher
// node index, labels drawn from {a, b, c}.
func randomDAG(rng *rand.Rand, n, m int) (*memgraph.Graph, []model.NodeID) {
	g := memgraph.New()
	ids := make([]model.NodeID, n)
	for i := range ids {
		ids[i], _ = g.AddNode("V", nil)
	}
	labels := []string{"a", "b", "c"}
	for i := 0; i < m; i++ {
		u := rng.Intn(n - 1)
		v := u + 1 + rng.Intn(n-u-1)
		g.AddEdge(labels[rng.Intn(len(labels))], ids[u], ids[v], nil)
	}
	return g, ids
}

// randomExpr produces a small random path expression over {a, b, c}.
func randomExpr(rng *rand.Rand, depth int) string {
	if depth <= 0 {
		return []string{"a", "b", "c"}[rng.Intn(3)]
	}
	switch rng.Intn(5) {
	case 0:
		return randomExpr(rng, depth-1) + "/" + randomExpr(rng, depth-1)
	case 1:
		return "(" + randomExpr(rng, depth-1) + "|" + randomExpr(rng, depth-1) + ")"
	case 2:
		return "(" + randomExpr(rng, depth-1) + ")*"
	case 3:
		return "(" + randomExpr(rng, depth-1) + ")?"
	default:
		return []string{"a", "b", "c"}[rng.Intn(3)]
	}
}

// Property: on acyclic graphs reachability and simple-path semantics
// agree for arbitrary expressions (every matching path in a DAG is simple).
func TestRPQProductVsNaiveOnRandomDAGsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, ids := randomDAG(rng, 8+rng.Intn(6), 10+rng.Intn(15))
		expr := randomExpr(rng, 2)
		pe, err := plan.CompilePathExpr(expr)
		if err != nil {
			t.Fatalf("compile %q: %v", expr, err)
		}
		start := ids[rng.Intn(len(ids))]
		fast, err := paths(pe, g, start, plan.Reachability)
		if err != nil {
			t.Fatalf("eval %q: %v", expr, err)
		}
		slow, err := paths(pe, g, start, plan.SimplePaths)
		if err != nil {
			t.Fatalf("simple paths %q: %v", expr, err)
		}
		fs := map[model.NodeID]bool{}
		for _, n := range fast {
			fs[n] = true
		}
		ss := map[model.NodeID]bool{}
		for _, n := range slow {
			ss[n] = true
		}
		if len(fs) != len(ss) {
			t.Logf("seed %d expr %q start %d: reachability=%v simple=%v", seed, expr, start, fast, slow)
			return false
		}
		for n := range fs {
			if !ss[n] {
				t.Logf("seed %d expr %q: reachability-only node %d", seed, expr, n)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: reachability results are closed under the automaton semantics — every
// returned node is reachable, and the start node is returned iff the
// expression accepts the empty word.
func TestRPQResultsReachableQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, ids := randomDAG(rng, 10, 20)
		pe, err := plan.CompilePathExpr(randomExpr(rng, 2))
		if err != nil {
			return false
		}
		start := ids[rng.Intn(len(ids))]
		nodes, err := paths(pe, g, start, plan.Reachability)
		if err != nil {
			return false
		}
		for _, n := range nodes {
			ok, err := algo.Reachable(g, start, n, model.Out)
			if err != nil || (!ok && n != start) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Simple-path semantics follows inverse edges too; confirm it stays
// consistent when inverse labels appear.
func TestRPQInverseOnDAG(t *testing.T) {
	g := memgraph.New()
	a, _ := g.AddNode("V", nil)
	b, _ := g.AddNode("V", nil)
	c, _ := g.AddNode("V", nil)
	g.AddEdge("a", a, b, nil)
	g.AddEdge("a", c, b, nil)
	pe, err := plan.CompilePathExpr("a/<a")
	if err != nil {
		t.Fatal(err)
	}
	fast, _ := paths(pe, g, a, plan.Reachability)
	// Reachability semantics: a -a-> b <-a- c, plus the degenerate return
	// to a itself.
	set := map[model.NodeID]bool{}
	for _, n := range fast {
		set[n] = true
	}
	if !set[c] {
		t.Errorf("reachability missed sibling node: %v", fast)
	}
	slow, _ := paths(pe, g, a, plan.SimplePaths)
	sset := map[model.NodeID]bool{}
	for _, n := range slow {
		sset[n] = true
	}
	if !sset[c] {
		t.Errorf("simple paths missed sibling node: %v", slow)
	}
	// Simple-path semantics excludes the return to a; reachability allows it.
	if sset[a] {
		t.Errorf("simple paths should not revisit the start: %v", slow)
	}
	if !set[a] {
		t.Errorf("reachability should include the start via a/<a: %v", fast)
	}
}
