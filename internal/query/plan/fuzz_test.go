package plan

import (
	"fmt"
	"maps"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"gdbm/internal/memgraph"
	"gdbm/internal/model"
	"gdbm/internal/query"
)

// FuzzCompileMatchSpec decodes arbitrary bytes into a MatchSpec and compiles
// it under both the naive and the cost-based/WCO planner. The contract under
// fuzz: no input panics either planner; a spec rejected by one is rejected by
// the other with the same error text (validation is shared, and a one-sided
// rejection would make plan choice observable); and any spec both accept
// must render byte-identical results on a reference graph — and each plan
// must render the same rows in the same order whether the source answers
// adjacency with id pairs or, its capabilities hidden, with Neighbors; and
// where the definitional oracle covers the spec, those rows are its rows;
// and canonicalize ranks the prepared spec exactly as its fmt reference.
// Crashing inputs become regression seeds in testdata/fuzz.

// fuzzGraph is the shared reference graph: small enough that the worst
// decoded pattern (5 nodes, cross-products) stays cheap, rich enough to
// reach every operator — three labels, rank properties, a parallel edge
// and a self-loop for multiplicity, triangles for the intersect path.
var fuzzGraph = sync.OnceValue(func() *memgraph.Graph {
	g := memgraph.New()
	labels := []string{"person", "place", "thing"}
	elabels := []string{"knows", "near", "owns"}
	var ids []model.NodeID
	for i := 0; i < 8; i++ {
		id, err := g.AddNode(labels[i%3], model.Props("rank", i%4))
		if err != nil {
			panic(err)
		}
		ids = append(ids, id)
	}
	add := func(label string, a, b int) {
		if _, err := g.AddEdge(label, ids[a], ids[b], nil); err != nil {
			panic(err)
		}
	}
	for j := 0; j < 16; j++ {
		add(elabels[j%3], j%8, (j*3+1)%8)
	}
	add("knows", 0, 1)
	add("knows", 1, 2)
	add("knows", 0, 2)
	add("knows", 0, 1) // parallel
	add("owns", 4, 4)  // self-loop
	return g
})

// decodeMatchSpec deterministically maps a byte stream onto a MatchSpec.
// Out-of-range endpoints, duplicate variables, negative var-length bounds
// and empty patterns are all reachable on purpose: the planners must agree
// on rejecting them, not just on answering the well-formed ones.
func decodeMatchSpec(data []byte) *MatchSpec {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	nodeLabels := []string{"", "person", "place", "thing"}
	edgeLabels := []string{"", "knows", "near", "owns"}
	spec := &MatchSpec{Limit: -1}

	nn := int(next() % 6) // 0 = empty pattern (must error on both)
	for i := 0; i < nn; i++ {
		np := NodePat{Label: nodeLabels[int(next())%len(nodeLabels)]}
		switch next() % 8 {
		case 0:
			np.Var = "dup" // collides when drawn twice
		case 1:
			np.Var = "" // auto-named by prepare
		default:
			np.Var = fmt.Sprintf("n%d", i)
		}
		if next()%4 == 0 {
			np.Props = model.Props("rank", int(next())%4)
		}
		spec.Nodes = append(spec.Nodes, np)
	}

	ne := int(next() % 7)
	for j := 0; j < ne; j++ {
		e := EdgePat{
			From:  int(next()%8) - 1, // -1..6: out of range both ways
			To:    int(next()%8) - 1,
			Label: edgeLabels[int(next())%len(edgeLabels)],
			Dir:   []model.Direction{model.Out, model.In, model.Both}[int(next())%3],
		}
		switch next() % 8 {
		case 0:
			e.Var = "dup" // may collide with a node variable
		case 1:
			e.Var = fmt.Sprintf("e%d", j)
		}
		if next()%5 == 0 {
			e.VarLength = true
			e.Min = int(next()%4) - 1 // -1 must error on both
			e.Max = int(next() % 4)
		}
		spec.Edges = append(spec.Edges, e)
	}

	// Projection: rank of every explicitly named node, or count(*).
	if next()%6 == 0 {
		spec.Aggs = []AggItem{{Name: "n", Fn: "count"}}
	} else {
		for _, np := range spec.Nodes {
			if np.Var == "" || np.Var == "dup" {
				continue
			}
			spec.Return = append(spec.Return, Item{
				Name: "c" + np.Var,
				Expr: query.Var{Name: np.Var, Prop: "rank"},
			})
		}
	}
	spec.Distinct = next()%4 == 0
	if next()%4 == 0 {
		spec.Limit = int(next() % 8)
		spec.Offset = int(next() % 4)
		for _, it := range spec.Return {
			spec.OrderBy = append(spec.OrderBy, OrderKey{Expr: query.Var{Name: it.Name}})
		}
	}
	return spec
}

func FuzzCompileMatchSpec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})                                  // empty pattern
	f.Add([]byte{3, 1, 2, 0, 1, 2, 0, 2, 3})          // labelled nodes, no edges
	f.Add([]byte{2, 1, 2, 1, 2, 1, 1, 2, 1, 0, 0, 0}) // one edge
	f.Add([]byte{1, 0, 2, 0, 1, 7, 7, 1, 0})          // endpoint out of range
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0})             // duplicate "dup" vars
	f.Add([]byte{3, 0, 2, 0, 1, 2, 0, 2, 2, 3, 1, 0, 1, 0, 0, 2, 1, 1, 0, 0, 3, 2, 1, 0, 0,
		1, 2, 0, 0, 0, 0, 0, 0}) // triangle-ish with modifiers
	f.Add([]byte{2, 1, 2, 1, 3, 1, 1, 2, 1, 0, 5, 0, 2, 3}) // var-length

	native, expanded := 0, 0
	src := capable{Graph: fuzzGraph(), nativeCalls: &native}
	hidden := neighborsOnly{src}
	f.Fuzz(func(t *testing.T, data []byte) {
		specA := decodeMatchSpec(data)
		specB := decodeMatchSpec(data)

		opA, errA := Compile(specA)
		opB, _, errB := Planner{WCO: true}.Compile(specB)

		if (errA == nil) != (errB == nil) {
			t.Fatalf("one-sided rejection: naive err=%v, cost err=%v", errA, errB)
		}
		if errA != nil {
			if errA.Error() != errB.Error() {
				t.Fatalf("error shape diverged: naive %q, cost %q", errA.Error(), errB.Error())
			}
			return
		}
		want, _ := canonicalizeFmt(specB, len(specB.Nodes))
		if got := canonicalize(specB); !sameRanks(got, want) {
			t.Fatalf("canonicalize diverges from the fmt reference\ngot:  %+v\nwant: %+v", got, want)
		}

		var cols []string
		for _, it := range specA.Return {
			cols = append(cols, it.Name)
		}
		for _, ag := range specA.Aggs {
			cols = append(cols, ag.Name)
		}
		resA, errA := Collect(opA, src, cols)
		resB, errB := Collect(opB, src, cols)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("one-sided run failure: naive err=%v, cost err=%v", errA, errB)
		}
		if errA != nil {
			return
		}
		ordered := len(specA.OrderBy) > 0
		if a, b := fuzzRender(resA, ordered), fuzzRender(resB, ordered); a != b {
			t.Fatalf("results diverged\nnaive plan: %s\ncost plan:  %s\nnaive: %q\ncost:  %q", opA, opB, a, b)
		}
		if oracleCovers(specA) {
			want, _ := oracle(t, fuzzGraph(), specA)
			if a, b := fuzzRender(resA, false), fuzzRender(want, false); a != b {
				t.Fatalf("planners disagree with the oracle\nplan: %s\nplanners: %q\noracle:   %q", opA, a, b)
			}
		}
		// The two adjacency paths are one answer, order included.
		for _, c := range []struct {
			op  Op
			res *Result
		}{{opA, resA}, {opB, resB}} {
			res, err := Collect(c.op, hidden, cols)
			if err != nil {
				t.Fatalf("run over Neighbors alone: %v\nplan: %s", err, c.op)
			}
			if a, b := fuzzRender(c.res, true), fuzzRender(res, true); a != b {
				t.Fatalf("adjacency paths diverged\nplan: %s\nid pairs:  %q\nNeighbors: %q", c.op, a, b)
			}
		}
		// A row of a pattern with edges, unaggregated and uncut, was found
		// by walking an edge: counters are per fuzz worker, and a pattern
		// that bound nothing may have asked for no adjacency at all.
		if len(specA.Edges) > 0 && oracleCovers(specA) && len(resA.Rows) > 0 {
			expanded++
		}
		if expanded > 0 && native == 0 {
			t.Fatalf("a pattern with edges returned rows, yet the capable source saw no id-adjacency request")
		}
	})
}

// oracleCovers reports whether oracle can answer spec: no aggregate or
// Limit/Offset (the decoder orders only under a Limit, and sets no Where).
func oracleCovers(spec *MatchSpec) bool {
	return len(spec.Aggs) == 0 && spec.Limit < 0 && spec.Offset == 0
}

// fuzzRender canonicalizes a result like the differential harness: EncodeKey
// rows, sorted unless an OrderBy fixed the order.
func fuzzRender(res *Result, ordered bool) string {
	lines := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		var kb []byte
		for _, v := range row {
			kb = v.EncodeKey(kb)
			kb = append(kb, '|')
		}
		lines[i] = string(kb)
	}
	if !ordered {
		sort.Strings(lines)
	}
	return strings.Join(lines, "\n")
}

// pathFuzzGraph is FuzzCompilePathExpr's fixed multigraph over the labels
// r and s: a cycle, a parallel edge, a self-loop and a node nothing enters.
var pathFuzzGraph = sync.OnceValue(func() *memgraph.Graph {
	g := memgraph.New()
	var ids []model.NodeID
	for i := 0; i < 4; i++ {
		id, err := g.AddNode("N", nil)
		if err != nil {
			panic(err)
		}
		ids = append(ids, id)
	}
	for _, e := range []struct {
		label    string
		from, to int
	}{{"r", 0, 1}, {"r", 0, 1}, {"s", 1, 2}, {"r", 2, 0}, {"s", 2, 2}, {"r", 3, 2}, {"s", 3, 0}} {
		if _, err := g.AddEdge(e.label, ids[e.from], ids[e.to], nil); err != nil {
			panic(err)
		}
	}
	return g
})

// FuzzCompilePathExpr compiles arbitrary text as a path expression. No
// input panics the parser, and every expression that compiles binds, from
// each node of pathFuzzGraph, the nodes the walk oracle defines: under
// reachability for walks of up to four edges, and under simple paths.
func FuzzCompilePathExpr(f *testing.F) {
	for _, seed := range []string{"r", "r/s", "(r|<s)*", "r+/<r?", "((r)", "", "r**", "<", "x y", "r/(s|<r)*/s", " r | s ", "(r?)*", "<s+/(r|s)?"} {
		f.Add(seed)
	}
	g := pathFuzzGraph()
	var edges []model.Edge
	var nodes []model.NodeID
	err := g.Edges(func(e model.Edge) bool { edges = append(edges, e); return true })
	if err == nil {
		err = g.Nodes(func(n model.Node) bool { nodes = append(nodes, n.ID); return true })
	}
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, expr string) {
		p, err := CompilePathExpr(expr)
		if err != nil {
			return
		}
		re, err := regexp.Compile(exprRegexp(expr))
		if err != nil {
			return // nested deeper than Go's regexp accepts
		}
		for _, sem := range []PathSemantics{Reachability, SimplePaths} {
			max := 4
			if sem == SimplePaths {
				max = 0
			}
			got := runPaths(t, capable{Graph: g}, p, 0, max, sem)
			for _, id := range nodes {
				want, _ := pathOracle(edges, len(nodes), id, re.MatchString, 0, max, sem)
				if !maps.Equal(got[id], want) {
					t.Fatalf("%q from %d under %d: got %v, oracle %v", expr, id, sem, got[id], want)
				}
			}
		}
	})
}
