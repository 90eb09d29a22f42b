package plan

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"gdbm/internal/algo"
	"gdbm/internal/memgraph"
	"gdbm/internal/model"
	"gdbm/internal/query"
	"gdbm/internal/query/stats"
)

// The definitional oracle: pattern semantics written down as a brute-force
// enumeration, with no planner, operator or adjacency path in it. DESIGN.md
// ("Match semantics") states the rules these tests hold the planners and
// MatchPattern to.

// homomorphisms calls fn once for every way the pattern maps into g. Every
// assignment of the pattern nodes to data nodes meeting their label and
// properties is tried; each pattern edge then picks, independently, a data
// edge carrying its label in an orientation its Dir allows (Out From→To, In
// To→From, Both either). An assignment thus recurs once per combination of
// (data edge, orientation) choices, and an undirected pattern edge meets a
// data self-loop twice. fn's slices are reused between calls.
func homomorphisms(t testing.TB, g model.Graph, nodes []NodePat, edges []EdgePat, fn func(assign []model.Node, chosen []model.Edge)) {
	t.Helper()
	var data []model.Node
	var dataEdges []model.Edge
	err := g.Nodes(func(n model.Node) bool { data = append(data, n); return true })
	if err == nil {
		err = g.Edges(func(e model.Edge) bool { dataEdges = append(dataEdges, e); return true })
	}
	if err != nil {
		t.Fatal(err)
	}
	assign := make([]model.Node, len(nodes))
	chosen := make([]model.Edge, len(edges))
	var pickEdge func(i int)
	pickEdge = func(i int) {
		if i == len(edges) {
			fn(assign, chosen)
			return
		}
		e := edges[i]
		from, to := assign[e.From].ID, assign[e.To].ID
		for _, de := range dataEdges {
			if e.Label != "" && de.Label != e.Label {
				continue
			}
			if e.Dir != model.In && de.From == from && de.To == to {
				chosen[i] = de
				pickEdge(i + 1)
			}
			if e.Dir != model.Out && de.From == to && de.To == from {
				chosen[i] = de
				pickEdge(i + 1)
			}
		}
	}
	var pickNode func(i int)
	pickNode = func(i int) {
		if i == len(nodes) {
			pickEdge(0)
			return
		}
	next:
		for _, n := range data {
			if nodes[i].Label != "" && n.Label != nodes[i].Label {
				continue
			}
			for k, v := range nodes[i].Props {
				if !n.Props.Get(k).Equal(v) {
					continue next
				}
			}
			assign[i] = n
			pickNode(i + 1)
		}
	}
	pickNode(0)
}

// oracle answers a prepared spec over g from homomorphisms: one row per
// homomorphism, its Return items evaluated over the node and edge
// bindings, duplicates dropped when Distinct — on the output columns, or
// with no Return on every binding, as the Distinct operator keys. It
// covers specs without var-length edges, Where, aggregates, ordering and
// Limit/Offset. loopMet reports whether an undirected pattern edge met a
// data self-loop.
func oracle(t testing.TB, g model.Graph, spec *MatchSpec) (res *Result, loopMet bool) {
	t.Helper()
	sc := &query.Scope{}
	for _, n := range spec.Nodes {
		sc.Add(n.Var)
	}
	edgeSlot := make([]int, len(spec.Edges))
	for i, e := range spec.Edges {
		edgeSlot[i] = -1
		if e.Var != "" {
			edgeSlot[i] = sc.Add(e.Var)
		}
	}
	exprs := make([]query.Expr, len(spec.Return))
	for i, it := range spec.Return {
		exprs[i] = query.Bind(it.Expr, sc)
	}
	res = &Result{}
	row := make(query.Row, len(sc.Names))
	seen := map[string]bool{}
	homomorphisms(t, g, spec.Nodes, spec.Edges, func(assign []model.Node, chosen []model.Edge) {
		for i, n := range assign {
			row[i] = query.NodeEntry(n)
		}
		for i, e := range chosen {
			if edgeSlot[i] >= 0 {
				row[edgeSlot[i]] = query.EdgeEntry(e)
			}
			loopMet = loopMet || (spec.Edges[i].Dir == model.Both && e.From == e.To)
		}
		out := make([]model.Value, len(exprs))
		for i, ex := range exprs {
			v, err := ex.Eval(row)
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			out[i] = v
		}
		if spec.Distinct {
			key := out
			if len(exprs) == 0 {
				key = make([]model.Value, len(row))
				for i, e := range row {
					key[i] = e.Scalar()
				}
			}
			var kb []byte
			for _, v := range key {
				kb = append(v.EncodeKey(kb), 0xFF)
			}
			if seen[string(kb)] {
				return
			}
			seen[string(kb)] = true
		}
		res.Rows = append(res.Rows, out)
	})
	return res, loopMet
}

// oracleGraph is a small random multigraph: labels, a property, and enough
// edges over few nodes that self-loops and parallel edges are common.
func oracleGraph(t *testing.T, rng *rand.Rand) *memgraph.Graph {
	t.Helper()
	g := memgraph.New()
	var ids []model.NodeID
	for i := 3 + rng.Intn(4); i > 0; i-- {
		id, err := g.AddNode([]string{"A", "B"}[rng.Intn(2)], model.Props("k", rng.Intn(2)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	var from, to model.NodeID
	for i := rng.Intn(13); i > 0; i-- {
		if from == to || rng.Intn(3) > 0 { // else the last edge again: a parallel edge
			from, to = ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
		}
		if _, err := g.AddEdge([]string{"r", "s"}[rng.Intn(2)], from, to, nil); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// oraclePattern draws 1–3 pattern nodes and 0–3 pattern edges between
// them (self-loops included), with optional labels and properties.
func oraclePattern(rng *rand.Rand, dirs []model.Direction) ([]NodePat, []EdgePat) {
	nodes := make([]NodePat, 1+rng.Intn(3))
	for i := range nodes {
		nodes[i].Var = fmt.Sprintf("n%d", i)
		nodes[i].Label = []string{"", "", "A", "B"}[rng.Intn(4)]
		if rng.Intn(4) == 0 {
			nodes[i].Props = model.Props("k", rng.Intn(2))
		}
	}
	edges := make([]EdgePat, rng.Intn(4))
	for i := range edges {
		edges[i] = EdgePat{
			From:  rng.Intn(len(nodes)),
			To:    rng.Intn(len(nodes)),
			Label: []string{"", "r", "s"}[rng.Intn(3)],
			Dir:   dirs[rng.Intn(len(dirs))],
		}
		if rng.Intn(3) == 0 {
			edges[i].Var = fmt.Sprintf("e%d", i)
		}
	}
	return nodes, edges
}

// TestPlannersMatchOracle: on random multigraphs, every planner returns the
// oracle's rows, multiplicity included, whichever adjacency path the
// source offers.
func TestPlannersMatchOracle(t *testing.T) {
	const cases = 3000
	nonEmpty, loops := 0, 0
	for seed := int64(0); seed < cases; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := oracleGraph(t, rng)
		nodes, edges := oraclePattern(rng, []model.Direction{model.Out, model.In, model.Both})
		spec := &MatchSpec{Nodes: nodes, Edges: edges, Distinct: rng.Intn(4) == 0, Limit: -1}
		cols := make([]string, len(nodes))
		for i, n := range nodes {
			cols[i] = n.Var
			spec.Return = append(spec.Return, Item{Name: n.Var, Expr: query.Var{Name: n.Var}})
		}
		st, err := stats.Build(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, loopMet := oracle(t, g, spec)
		if len(want.Rows) > 0 {
			nonEmpty++
		}
		if loopMet {
			loops++
		}
		var src Source = capable{Graph: g}
		if seed%2 == 1 {
			src = UnindexedSource{g}
		}
		naive, costed, wco := compileAll(t, spec, st)
		for name, op := range map[string]Op{"naive": naive, "cost": costed, "wco": wco} {
			got, err := Collect(op, src, cols)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			if a, b := fuzzRender(got, false), fuzzRender(want, false); a != b {
				t.Fatalf("seed %d %s: %d rows, oracle %d\nspec: %+v\nplan: %s", seed, name, len(got.Rows), len(want.Rows), spec, op)
			}
		}
	}
	t.Logf("%d of %d cases non-empty, %d meet an undirected self-loop", nonEmpty, cases, loops)
	if nonEmpty < cases/3 {
		t.Errorf("only %d of %d cases have a match: the comparison is near vacuous", nonEmpty, cases)
	}
	if loops == 0 {
		t.Error("no case has an undirected pattern edge meeting a self-loop")
	}
}

// TestMatchPatternMatchesInjectiveOracle: MatchPattern returns the set of
// node-injective homomorphism assignments, each once, cut to limit.
func TestMatchPatternMatchesInjectiveOracle(t *testing.T) {
	const cases = 5000
	nonEmpty, dropped, repeated := 0, 0, 0
	for seed := int64(0); seed < cases; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := oracleGraph(t, rng)
		nodes, edges := oraclePattern(rng, []model.Direction{model.Out})
		pn := make([]algo.PatternNode, len(nodes))
		for i, n := range nodes {
			pn[i] = algo.PatternNode{Label: n.Label, Props: n.Props}
			if rng.Intn(3) > 0 {
				pn[i].Var = n.Var
			}
		}
		pe := make([]algo.PatternEdge, len(edges))
		for i, e := range edges {
			pe[i] = algo.PatternEdge{From: e.From, To: e.To, Label: e.Label}
		}
		p, err := algo.NewPattern(pn, pe)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]int{}
		homomorphisms(t, g, nodes, edges, func(assign []model.Node, _ []model.Edge) {
			key := ""
			for i := range assign {
				key += fmt.Sprint(assign[i].ID, " ")
				for j := 0; j < i; j++ {
					if assign[i].ID == assign[j].ID {
						dropped++
						return
					}
				}
			}
			if want[key]++; want[key] == 2 {
				repeated++
			}
		})
		limit := []int{0, 0, 1, 2}[rng.Intn(4)]
		got, err := MatchPattern(context.Background(), g, p, limit)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(want) > 0 {
			nonEmpty++
		}
		wantLen := len(want)
		if limit > 0 && limit < wantLen {
			wantLen = limit
		}
		if len(got) != wantLen {
			t.Fatalf("seed %d limit %d: %d matches, want %d", seed, limit, len(got), wantLen)
		}
		seen := map[string]bool{}
		for _, m := range got {
			key := ""
			for i := range nodes {
				key += fmt.Sprint(m[p.Var(i)], " ")
			}
			if want[key] == 0 || seen[key] {
				t.Fatalf("seed %d: match %v is not a new injective assignment", seed, m)
			}
			seen[key] = true
		}
	}
	t.Logf("%d of %d cases non-empty; %d assignments dropped as non-injective, %d folded by Distinct", nonEmpty, cases, dropped, repeated)
	if nonEmpty < cases/3 {
		t.Errorf("only %d of %d cases have a match: the comparison is near vacuous", nonEmpty, cases)
	}
	if dropped == 0 || repeated == 0 {
		t.Errorf("the injectivity filter dropped %d and Distinct folded %d assignments: one is untested", dropped, repeated)
	}
}

// TestVarLengthEmitsEachNodeAtBFSDistance pins the var-length rule: over
// a→b→c→b, (a)-[:r*2..3]->(y) answers only c. b lies at BFS distance 1,
// outside 2..3, although a trail of length 3 (a→b→c→b) reaches it.
func TestVarLengthEmitsEachNodeAtBFSDistance(t *testing.T) {
	g := memgraph.New()
	ids := map[string]model.NodeID{}
	for _, n := range []string{"a", "b", "c"} {
		ids[n], _ = g.AddNode("N", model.Props("name", n))
	}
	for _, e := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "b"}} {
		if _, err := g.AddEdge("r", ids[e[0]], ids[e[1]], nil); err != nil {
			t.Fatal(err)
		}
	}
	st, err := stats.Build(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	spec := &MatchSpec{
		Nodes:  []NodePat{{Var: "x", Props: model.Props("name", "a")}, {Var: "y"}},
		Edges:  []EdgePat{{From: 0, To: 1, Label: "r", Dir: model.Out, VarLength: true, Min: 2, Max: 3}},
		Return: []Item{nameItem("y")},
		Limit:  -1,
	}
	naive, costed, wco := compileAll(t, spec, st)
	for name, op := range map[string]Op{"naive": naive, "cost": costed, "wco": wco} {
		res, err := Collect(op, UnindexedSource{g}, []string{"y"})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || !res.Rows[0][0].Equal(model.Str("c")) {
			t.Errorf("%s: rows = %v, want only c", name, res.Rows)
		}
	}
}
