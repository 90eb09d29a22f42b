package plan

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"regexp"
	"slices"
	"strings"
	"testing"

	"gdbm/internal/memgraph"
	"gdbm/internal/model"
	"gdbm/internal/query"
	"gdbm/internal/query/stats"
)

// The definitional oracle: pattern and path semantics written down as
// brute-force enumerations of assignments and walks, with no planner,
// operator or adjacency path in them. DESIGN.md ("Match semantics") states
// the rules these tests hold the planners, MatchPattern and PathExpand to.

// homomorphisms calls fn once for every way the pattern maps into g. Every
// assignment of the pattern nodes to data nodes meeting their label and
// properties is tried; each pattern edge then picks, independently, a data
// edge carrying its label in an orientation its Dir allows (Out From→To, In
// To→From, Both either). An assignment thus recurs once per combination of
// (data edge, orientation) choices, and an undirected pattern edge meets a
// data self-loop twice. A var-length pattern edge picks no data edge: it
// holds, once, if the least walk starDist finds from its From to its To
// node has a length in Min..Max (Max 0 = unbounded). fn's slices are
// reused between calls.
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
	dists := map[[3]int]int{} // (pattern edge, from, to) → starDist
	var pickEdge func(i int)
	pickEdge = func(i int) {
		if i == len(edges) {
			fn(assign, chosen)
			return
		}
		e := edges[i]
		from, to := assign[e.From].ID, assign[e.To].ID
		if e.VarLength {
			key := [3]int{i, int(from), int(to)}
			d, ok := dists[key]
			if !ok {
				d = starDist(dataEdges, len(data), e, from, to)
				dists[key] = d
			}
			if d >= 0 && d >= e.Min && (e.Max == 0 || d <= e.Max) {
				chosen[i] = model.Edge{}
				pickEdge(i + 1)
			}
			return
		}
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
// covers specs without Where, aggregates, ordering and Limit/Offset.
// loopMet reports whether an undirected pattern edge met a data self-loop.
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
			loopMet = loopMet || (spec.Edges[i].Dir == model.Both && !spec.Edges[i].VarLength && e.From == e.To)
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
// them (self-loops included), with optional labels and properties, and with
// varLength some var-length edges among them.
func oraclePattern(rng *rand.Rand, dirs []model.Direction, varLength bool) ([]NodePat, []EdgePat) {
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
		switch {
		case varLength && rng.Intn(3) == 0:
			edges[i].VarLength, edges[i].Min, edges[i].Max = true, rng.Intn(3), rng.Intn(4)
		case rng.Intn(3) == 0:
			edges[i].Var = fmt.Sprintf("e%d", i)
		}
	}
	return nodes, edges
}

// TestPlannersMatchOracle: on random multigraphs, every planner returns the
// oracle's rows, multiplicity included, var-length edges among them,
// whichever adjacency path the source offers.
func TestPlannersMatchOracle(t *testing.T) {
	const cases = 3000
	nonEmpty, loops, paths := 0, 0, 0
	for seed := int64(0); seed < cases; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := oracleGraph(t, rng)
		nodes, edges := oraclePattern(rng, []model.Direction{model.Out, model.In, model.Both}, true)
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
		for _, e := range edges {
			if e.VarLength && len(want.Rows) > 0 {
				paths++
				break
			}
		}
		var src Source = capable{Graph: g}
		if seed%2 == 1 {
			src = neighborsOnly{g}
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
	t.Logf("%d of %d cases non-empty, %d meet an undirected self-loop, %d match a var-length edge", nonEmpty, cases, loops, paths)
	if nonEmpty < cases/3 {
		t.Errorf("only %d of %d cases have a match: the comparison is near vacuous", nonEmpty, cases)
	}
	if loops == 0 {
		t.Error("no case has an undirected pattern edge meeting a self-loop")
	}
	if paths < cases/20 {
		t.Errorf("only %d of %d cases match a var-length edge", paths, cases)
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
		nodes, edges := oraclePattern(rng, []model.Direction{model.Out}, false)
		pn := make([]PatternNode, len(nodes))
		for i, n := range nodes {
			pn[i] = PatternNode{Label: n.Label, Props: n.Props}
			if rng.Intn(3) > 0 {
				pn[i].Var = n.Var
			}
		}
		pe := make([]PatternEdge, len(edges))
		for i, e := range edges {
			pe[i] = PatternEdge{From: e.From, To: e.To, Label: e.Label}
		}
		p, err := NewPattern(pn, pe)
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

// walks calls visit for every walk from start of at most maxLen steps,
// depth first, and extends a walk only while visit returns true. A step
// takes a data edge incident to the walk's last node, out along it or in
// against it, so a self-loop offers two steps. path holds the walk's nodes,
// start first; word has one letter per step, the first byte of the edge's
// label, upper-cased for a step against the edge (the oracle graphs' labels
// are lower-case and differ in their first byte). Both are reused between
// calls.
func walks(edges []model.Edge, start model.NodeID, maxLen int, visit func(path []model.NodeID, word []byte) bool) {
	path := []model.NodeID{start}
	var word []byte
	var extend func()
	extend = func() {
		if !visit(path, word) || len(word) == maxLen {
			return
		}
		at := path[len(path)-1]
		for _, e := range edges {
			for _, against := range []bool{false, true} {
				from, to, letter := e.From, e.To, e.Label[0]
				if against {
					from, to, letter = e.To, e.From, letter-'a'+'A'
				}
				if from != at {
					continue
				}
				path, word = append(path, to), append(word, letter)
				extend()
				path, word = path[:len(path)-1], word[:len(word)-1]
			}
		}
	}
	extend()
}

// starStep reports whether a step with letter c may extend a walk of
// label* over edges walked in dir ("" = any label).
func starStep(label string, dir model.Direction, c byte) bool {
	against := c >= 'A' && c <= 'Z'
	if against {
		c += 'a' - 'A'
	}
	if label != "" && c != label[0] {
		return false
	}
	return dir == model.Both || against == (dir == model.In)
}

// starDist returns the least length of a walk from `from` to `to` that the
// var-length pattern edge e allows, or -1: every step carries e's label in
// a direction e.Dir allows. The search reaches e.Max steps, or with no
// bound nodes-1, the most a least walk takes. A walk is extended only if it
// is the first to reach its end at its length: what a walk of label* may do
// next depends on its end alone.
func starDist(edges []model.Edge, nodes int, e EdgePat, from, to model.NodeID) int {
	maxLen := e.Max
	if maxLen == 0 {
		maxLen = nodes - 1
	}
	best := -1
	seen := map[[2]int]bool{}
	walks(edges, from, maxLen, func(path []model.NodeID, word []byte) bool {
		if len(word) > 0 && !starStep(e.Label, e.Dir, word[len(word)-1]) {
			return false
		}
		end := path[len(path)-1]
		if key := [2]int{int(end), len(word)}; seen[key] {
			return false
		} else {
			seen[key] = true
		}
		if end == to && (best < 0 || len(word) < best) {
			best = len(word)
		}
		return true
	})
	return best
}

// pathOracle answers a path query from start over the graph's edges by
// enumerating walks whose word accept takes. Under Reachability it is the
// set of nodes whose least accepted walk has a length in [min, max]; max
// must be set, since the search stops there. Under SimplePaths it is the
// set of nodes at the end of an accepted walk with a length in [min, max]
// (max 0 = any) that repeats no node. A reachability walk is extended only
// if it is the first to reach its (end, word): walks sharing both are
// accepted alike from there on. belowMin counts the nodes an accepted walk
// in range reaches that reachability leaves out, their least accepted walk
// being shorter than min.
func pathOracle(edges []model.Edge, nodes int, start model.NodeID, accept func(string) bool, min, max int, sem PathSemantics) (answer map[model.NodeID]bool, belowMin int) {
	answer = map[model.NodeID]bool{}
	if sem == SimplePaths {
		if max == 0 {
			max = nodes - 1
		}
		walks(edges, start, max, func(path []model.NodeID, word []byte) bool {
			end := path[len(path)-1]
			if slices.Contains(path[:len(path)-1], end) {
				return false
			}
			if len(word) >= min && accept(string(word)) {
				answer[end] = true
			}
			return true
		})
		return answer, 0
	}
	least, inRange := map[model.NodeID]int{}, map[model.NodeID]bool{}
	type reached struct {
		end  model.NodeID
		word string
	}
	seen := map[reached]bool{}
	walks(edges, start, max, func(path []model.NodeID, word []byte) bool {
		end := path[len(path)-1]
		if key := (reached{end, string(word)}); seen[key] {
			return false
		} else {
			seen[key] = true
		}
		if accept(string(word)) {
			if d, ok := least[end]; !ok || len(word) < d {
				least[end] = len(word)
			}
			inRange[end] = inRange[end] || len(word) >= min
		}
		return true
	})
	for n, d := range least {
		if d >= min {
			answer[n] = true
		} else if inRange[n] {
			belowMin++
		}
	}
	return answer, belowMin
}

// exprRegexp translates a path expression that compiles into a Go regular
// expression over walk words: a label r or s becomes its letter, any other
// label a letter no word holds, upper-cased under '<'; concatenation loses
// its '/', and '|', '*', '+', '?' and grouping keep their meaning.
func exprRegexp(expr string) string {
	var b strings.Builder
	for i := 0; i < len(expr); {
		c := expr[i]
		switch {
		case c == ' ' || c == '\t' || c == '/':
			i++
		case strings.IndexByte("|*+?()", c) >= 0:
			b.WriteByte(c)
			i++
		default:
			against := c == '<'
			if against {
				i++
			}
			j := i
			for j < len(expr) && strings.IndexByte("|/*+?()< \t", expr[j]) < 0 {
				j++
			}
			letter := byte('z')
			if j-i == 1 && (expr[i] == 'r' || expr[i] == 's') {
				letter = expr[i]
			}
			if against {
				letter -= 'a' - 'A'
			}
			b.WriteByte(letter)
			i = j
		}
	}
	return "^(?:" + b.String() + ")$"
}

// randomPathExpr draws a path expression over r, s and their inverses.
func randomPathExpr(rng *rand.Rand, depth int) string {
	atom := []string{"r", "s", "<r", "<s"}[rng.Intn(4)]
	if depth == 0 {
		return atom
	}
	sub := func() string { return randomPathExpr(rng, depth-1) }
	switch rng.Intn(6) {
	case 0:
		return sub() + "/" + sub()
	case 1:
		return "(" + sub() + "|" + sub() + ")"
	case 2:
		return "(" + sub() + ")*"
	case 3:
		return "(" + sub() + ")+"
	case 4:
		return "(" + sub() + ")?"
	}
	return atom
}

// runPaths binds PathExpand from every node of src's graph and returns the
// nodes bound per start, failing on a node bound twice.
func runPaths(t *testing.T, src Source, p *PathExpr, min, max int, sem PathSemantics) map[model.NodeID]map[model.NodeID]bool {
	t.Helper()
	op := &Project{
		Child: &PathExpand{Child: &NodeScan{Var: "x"}, FromVar: "x", ToVar: "y", Path: p, Min: min, Max: max, Semantics: sem},
		Items: []Item{{Name: "x", Expr: query.Var{Name: "x"}}, {Name: "y", Expr: query.Var{Name: "y"}}},
	}
	bindTree(op)
	res, err := Collect(op, src, []string{"x", "y"})
	if err != nil {
		t.Fatal(err)
	}
	got := map[model.NodeID]map[model.NodeID]bool{}
	for _, row := range res.Rows {
		x, _ := row[0].AsInt()
		y, _ := row[1].AsInt()
		if got[model.NodeID(x)] == nil {
			got[model.NodeID(x)] = map[model.NodeID]bool{}
		}
		if got[model.NodeID(x)][model.NodeID(y)] {
			t.Fatalf("%s from %d binds %d twice", op, x, y)
		}
		got[model.NodeID(x)][model.NodeID(y)] = true
	}
	return got
}

// TestPathExpandMatchesWalkOracle: on random multigraphs, PathExpand binds
// the nodes the walk oracle defines under both semantics, from every start
// node, for compiled expressions and for the label* automata of gql's
// var-length edges in all three directions, whichever adjacency path the
// source offers; MatchPath answers as PathExpand unbounded.
func TestPathExpandMatchesWalkOracle(t *testing.T) {
	const cases = 1500
	nonEmpty, belowMin, differ := 0, 0, 0
	for seed := int64(0); seed < cases; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := oracleGraph(t, rng)
		var edges []model.Edge
		var nodes []model.NodeID
		if err := g.Edges(func(e model.Edge) bool { edges = append(edges, e); return true }); err != nil {
			t.Fatal(err)
		}
		if err := g.Nodes(func(n model.Node) bool { nodes = append(nodes, n.ID); return true }); err != nil {
			t.Fatal(err)
		}
		var p *PathExpr
		var accept func(string) bool
		if rng.Intn(2) == 0 {
			expr := randomPathExpr(rng, 2)
			var err error
			if p, err = CompilePathExpr(expr); err != nil {
				t.Fatal(err)
			}
			accept = regexp.MustCompile(exprRegexp(expr)).MatchString
		} else {
			label := []string{"", "r", "s"}[rng.Intn(3)]
			dir := []model.Direction{model.Out, model.In, model.Both}[rng.Intn(3)]
			p = labelStar(label, dir)
			accept = func(w string) bool {
				for i := range w {
					if !starStep(label, dir, w[i]) {
						return false
					}
				}
				return true
			}
		}
		var src Source = capable{Graph: g}
		if seed%2 == 1 {
			src = neighborsOnly{g}
		}
		min, max := rng.Intn(3), 1+rng.Intn(4)
		got := map[PathSemantics]map[model.NodeID]map[model.NodeID]bool{}
		for _, sem := range []PathSemantics{Reachability, SimplePaths} {
			got[sem] = runPaths(t, src, p, min, max, sem)
			for _, start := range nodes {
				want, below := pathOracle(edges, len(nodes), start, accept, min, max, sem)
				belowMin += below
				if len(want) > 0 {
					nonEmpty++
				}
				if !maps.Equal(got[sem][start], want) {
					t.Fatalf("seed %d, %s from %d over %d..%d under %d: got %v, oracle %v", seed, p, start, min, max, sem, got[sem][start], want)
				}
			}
		}
		for _, start := range nodes {
			if !maps.Equal(got[Reachability][start], got[SimplePaths][start]) {
				differ++
			}
			simple, err := MatchPath(context.Background(), src, p, start, SimplePaths)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := pathOracle(edges, len(nodes), start, accept, 0, 0, SimplePaths)
			if len(simple) != len(want) || !allIn(simple, want) {
				t.Fatalf("seed %d, %s from %d: MatchPath's simple paths %v, oracle %v", seed, p, start, simple, want)
			}
			reach, err := MatchPath(context.Background(), src, p, start, Reachability)
			if err != nil {
				t.Fatal(err)
			}
			want, _ = pathOracle(edges, len(nodes), start, accept, 0, 4, Reachability)
			for n := range want {
				if !slices.Contains(reach, n) {
					t.Fatalf("seed %d, %s from %d: MatchPath's reachability %v misses %d", seed, p, start, reach, n)
				}
			}
		}
	}
	t.Logf("%d non-empty answers; %d nodes left out as reached below min; %d starts where the semantics differ", nonEmpty, belowMin, differ)
	if nonEmpty < cases {
		t.Errorf("only %d non-empty answers over %d cases: the comparison is near vacuous", nonEmpty, cases)
	}
	if belowMin == 0 {
		t.Error("no node reached below min was left out: the least-length rule is untested")
	}
	if differ == 0 {
		t.Error("simple paths never differ from reachability")
	}
}

// allIn reports whether every id is in set.
func allIn(ids []model.NodeID, set map[model.NodeID]bool) bool {
	for _, id := range ids {
		if !set[id] {
			return false
		}
	}
	return true
}
