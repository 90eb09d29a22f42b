package algo

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gdbm/internal/algo/algotest"
	"gdbm/internal/memgraph"
	"gdbm/internal/model"
)

// The DAG and expression generators live in algotest.
var (
	randomDAG  = algotest.RandomDAG
	randomExpr = algotest.RandomExpr
)

// Property: on acyclic graphs the product-automaton evaluation and the
// naive simple-path evaluation agree for arbitrary expressions (every
// matching path in a DAG is simple).
func TestRPQProductVsNaiveOnRandomDAGsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, ids := randomDAG(rng, 8+rng.Intn(6), 10+rng.Intn(15))
		expr := randomExpr(rng, 2)
		pe, err := CompilePathExpr(expr)
		if err != nil {
			t.Fatalf("compile %q: %v", expr, err)
		}
		start := ids[rng.Intn(len(ids))]
		fast, err := pe.Eval(g, start)
		if err != nil {
			t.Fatalf("eval %q: %v", expr, err)
		}
		slow, err := pe.EvalNaive(g, start, 14)
		if err != nil {
			t.Fatalf("naive %q: %v", expr, err)
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
			t.Logf("seed %d expr %q start %d: product=%v naive=%v", seed, expr, start, fast, slow)
			return false
		}
		for n := range fs {
			if !ss[n] {
				t.Logf("seed %d expr %q: product-only node %d", seed, expr, n)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: Eval results are closed under the automaton semantics — every
// returned node is reachable, and the start node is returned iff the
// expression accepts the empty word.
func TestRPQResultsReachableQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, ids := randomDAG(rng, 10, 20)
		pe, err := CompilePathExpr(randomExpr(rng, 2))
		if err != nil {
			return false
		}
		start := ids[rng.Intn(len(ids))]
		nodes, err := pe.Eval(g, start)
		if err != nil {
			return false
		}
		for _, n := range nodes {
			ok, err := Reachable(g, start, n, model.Out)
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

// The naive evaluator's EvalNaive explores inverse edges too; confirm it
// stays consistent when inverse labels appear.
func TestRPQInverseOnDAG(t *testing.T) {
	g := memgraph.New()
	a, _ := g.AddNode("V", nil)
	b, _ := g.AddNode("V", nil)
	c, _ := g.AddNode("V", nil)
	g.AddEdge("a", a, b, nil)
	g.AddEdge("a", c, b, nil)
	pe, err := CompilePathExpr("a/<a")
	if err != nil {
		t.Fatal(err)
	}
	fast, _ := pe.Eval(g, a)
	// Reachability semantics: a -a-> b <-a- c, plus the degenerate return
	// to a itself.
	set := map[model.NodeID]bool{}
	for _, n := range fast {
		set[n] = true
	}
	if !set[c] {
		t.Errorf("product missed sibling node: %v", fast)
	}
	slow, _ := pe.EvalNaive(g, a, 6)
	sset := map[model.NodeID]bool{}
	for _, n := range slow {
		sset[n] = true
	}
	if !sset[c] {
		t.Errorf("naive missed sibling node: %v", slow)
	}
	// Simple-path semantics excludes the return to a; reachability allows it.
	if sset[a] {
		t.Errorf("naive should not revisit the start: %v", slow)
	}
	if !set[a] {
		t.Errorf("product should include the start via a/<a: %v", fast)
	}
}
