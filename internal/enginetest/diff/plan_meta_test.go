package diff

import (
	"math"
	"math/rand"
	"testing"

	"gdbm/internal/model"
	"gdbm/internal/query/plan"
	"gdbm/internal/query/stats"
)

// Metamorphic plan tests: a MatchSpec denotes a pattern, not a procedure,
// so rewritings that preserve the pattern — permuting node declarations,
// permuting edge declarations, reversing a Both-direction edge, renaming
// every variable — must never change the rendered result. The estimated
// cost class must hold too: the estimate derives from graph statistics,
// not from declaration order, so a transform may only move it by float
// noise (tie-breaks between equal-cost plans), never by a magnitude.

// permuteNodes relocates node i to perm[i], remapping edges and returns.
func permuteNodes(p PlanPat, perm []int) PlanPat {
	q := p
	q.Nodes = make([]PlanNode, len(p.Nodes))
	for i, n := range p.Nodes {
		q.Nodes[perm[i]] = n
	}
	q.Edges = make([]PlanEdge, len(p.Edges))
	for i, e := range p.Edges {
		e.From, e.To = perm[e.From], perm[e.To]
		q.Edges[i] = e
	}
	q.ReturnNodes = make([]int, len(p.ReturnNodes))
	for i, ni := range p.ReturnNodes {
		q.ReturnNodes[i] = perm[ni]
	}
	return q
}

// permuteEdges reorders edge declarations.
func permuteEdges(p PlanPat, perm []int) PlanPat {
	q := p
	q.Edges = make([]PlanEdge, len(p.Edges))
	for i, e := range p.Edges {
		q.Edges[perm[i]] = e
	}
	return q
}

// flipBoth reverses the endpoints of every single-hop Both edge; an
// undirected pattern edge has no orientation to preserve.
func flipBoth(p PlanPat) PlanPat {
	q := p
	q.Edges = make([]PlanEdge, len(p.Edges))
	for i, e := range p.Edges {
		if e.Dir == model.Both && !e.VarLength {
			e.From, e.To = e.To, e.From
		}
		q.Edges[i] = e
	}
	return q
}

// costClass buckets an estimate's cost by decimal order of magnitude
// (costs below 1 count as 1). Metamorphic tests compare classes, not raw
// costs: permuting a spec's declaration order may legitimately flip
// tie-breaks, but it must never move a plan to a different order of
// magnitude.
func costClass(e plan.Estimate) int {
	return int(math.Floor(math.Log10(math.Max(e.Cost, 1)) + 1e-9))
}

// costClassStable accepts equal classes, or estimates whose underlying
// costs differ by float noise only (summation order and tie-breaks between
// equal-cost plans can straddle a log10 boundary).
func costClassStable(a, b plan.Estimate) bool {
	if costClass(a) == costClass(b) {
		return true
	}
	hi := math.Max(a.Cost, b.Cost)
	return hi > 0 && math.Abs(a.Cost-b.Cost)/hi <= 0.01
}

// compileEst compiles under the cost-based planner (WCO on, the planner
// with the most order-sensitive search) and returns plan + estimate.
func compileEst(t *testing.T, spec *plan.MatchSpec, st *stats.Stats) (plan.Op, plan.Estimate) {
	t.Helper()
	op, est, err := plan.Planner{Stats: st, WCO: true}.Compile(spec)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return op, est
}

// runPatWCO renders pat with prefix, compiles it under the WCO planner,
// and executes it on inst.
func runPatWCO(t *testing.T, inst *planInstance, pat PlanPat, prefix string) (string, plan.Estimate) {
	t.Helper()
	spec, cols := pat.Render(prefix)
	op, est := compileEst(t, spec, inst.st)
	res, err := plan.Collect(op, inst.src, cols)
	if err != nil {
		t.Fatalf("run: %v\nplan: %s", err, op)
	}
	return renderPlanResult(res, pat.Ordered()), est
}

// TestPlanMetamorphic applies every transform to every seeded blueprint on
// one property-graph engine and demands identical renderings and a stable
// cost class. Transform permutations derive from the same seed, so a
// failure replays with -seed=N.
func TestPlanMetamorphic(t *testing.T) {
	seed := SeedOrDefault(13)
	pats := GeneratePlanPats(seed, planPatCount)
	rng := rand.New(rand.NewSource(seed + 1))
	inst := openPlanInstance(t, "neograph", "mem")
	for pi, pat := range pats {
		base, baseEst := runPatWCO(t, inst, pat, "v")
		transforms := []struct {
			name string
			pat  PlanPat
			pre  string
		}{
			{"permute-nodes", permuteNodes(pat, rng.Perm(len(pat.Nodes))), "v"},
			{"permute-edges", permuteEdges(pat, rng.Perm(len(pat.Edges))), "v"},
			{"flip-both", flipBoth(pat), "v"},
			{"rename-vars", pat, "other_"},
		}
		for _, tr := range transforms {
			got, est := runPatWCO(t, inst, tr.pat, tr.pre)
			if got != base {
				t.Errorf("seed %d pat %d transform %s changed the result\nbase: %q\ngot:  %q\n(replay with -seed=%d)",
					seed, pi, tr.name, base, got, seed)
			}
			if !costClassStable(baseEst, est) {
				t.Errorf("seed %d pat %d transform %s moved the cost class: %d (cost %g) -> %d (cost %g)",
					seed, pi, tr.name, costClass(baseEst), baseEst.Cost, costClass(est), est.Cost)
			}
		}
	}
}

// TestPlanMetamorphicAcrossPlanners re-checks the node-permutation
// transform under the naive and stats-only planners too: pattern-identity
// is a property of the spec semantics, not of one planner's search order.
func TestPlanMetamorphicAcrossPlanners(t *testing.T) {
	seed := SeedOrDefault(17)
	pats := GeneratePlanPats(seed, planPatCount)
	rng := rand.New(rand.NewSource(seed + 1))
	inst := openPlanInstance(t, "bitmapdb", "mem")
	for pi, pat := range pats {
		perm := rng.Perm(len(pat.Nodes))
		mutated := permuteNodes(pat, perm)
		for _, pl := range planners {
			render := func(p PlanPat) string {
				spec, cols := p.Render("v")
				op, err := pl.compile(spec, inst.st)
				if err != nil {
					t.Fatalf("pat %d planner %s compile: %v", pi, pl.name, err)
				}
				res, err := plan.Collect(op, inst.src, cols)
				if err != nil {
					t.Fatalf("pat %d planner %s run: %v", pi, pl.name, err)
				}
				return renderPlanResult(res, pat.Ordered())
			}
			if a, b := render(pat), render(mutated); a != b {
				t.Errorf("seed %d pat %d planner %s: node permutation changed the result\nbase: %q\ngot:  %q\n(replay with -seed=%d)",
					seed, pi, pl.name, a, b, seed)
			}
		}
	}
}
