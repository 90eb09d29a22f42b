package plan_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"gdbm/internal/engine"
	"gdbm/internal/engines/neograph"
	"gdbm/internal/gen"
	"gdbm/internal/memgraph"
	"gdbm/internal/model"
	"gdbm/internal/query/gql"
	"gdbm/internal/query/plan"
)

// The traversal statements of the end-to-end benchmark's traverse_mem
// workload, engine only: neograph in memory over gen.BA, uniform start
// nodes, parse + compile + run under WithCancel, as a served request does.
// Reproduce the per-kind numbers with
//
//	go test -run '^$' -bench Traverse -cpu 1 ./internal/query/plan/
const traverseNodes = 20000

var traverseKinds = map[string]string{
	"Hop2":     "MATCH (a:N {idx: %d})-[:link]-(b)-[:link]-(c) RETURN count(*) AS n",
	"Tri":      "MATCH (a:N {idx: %d})-[:link]-(b)-[:link]-(c)-[:link]-(a) RETURN count(*) AS n",
	"Var2":     "MATCH (a:N {idx: %d})-[:link*1..2]->(b) RETURN count(*) AS n",
	"Hop2Rows": "MATCH (a:N {idx: %d})-[:link]-(b)-[:link]-(c) RETURN c.idx AS i, c.weight AS w",
}

var traverseDB = sync.OnceValue(func() *neograph.DB {
	db, err := neograph.New(engine.Options{})
	if err != nil {
		panic(err)
	}
	spec := gen.Spec{Kind: gen.BA, Nodes: traverseNodes, EdgesPerNode: 4, Seed: 1, Labels: []string{"N"}, EdgeLabel: "link"}
	if _, err := gen.Generate(spec, db); err != nil {
		panic(err)
	}
	if err := db.CreateIndex("idx"); err != nil {
		panic(err)
	}
	return db
})

// runStmt parses, compiles and runs stmt over src and returns its rows.
func runStmt(tb testing.TB, stmt string, src plan.Source) [][]model.Value {
	tb.Helper()
	st, err := gql.Parse(stmt)
	if err != nil {
		tb.Fatal(err)
	}
	op, err := plan.CompileFor(st.Match, src)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := plan.Collect(op, src, st.Columns())
	if err != nil {
		tb.Fatal(err)
	}
	return res.Rows
}

// hideIDs hides model.IDAdjacency behind the embedded graph, so operators
// over it walk Neighbors records instead of id pairs.
type hideIDs struct{ model.Graph }

// rowBag renders rows as a sorted multiset of strings.
func rowBag(rows [][]model.Value) []string {
	bag := make([]string, len(rows))
	for i, row := range rows {
		var sb strings.Builder
		for _, v := range row {
			fmt.Fprintf(&sb, "%d:%s|", v.Kind(), v)
		}
		bag[i] = sb.String()
	}
	slices.Sort(bag)
	return bag
}

// gateTraverse is the answer gate benchTraverse times behind: for each of
// the first starts seeded start nodes, kind's statement over src must
// return the rows, as a multiset, that the naive plan returns over
// db.Core's Neighbors records alone. A faster store that changes an answer is a
// bug, not a win.
func gateTraverse(tb testing.TB, db *neograph.DB, src plan.Source, kind string, starts int) {
	tb.Helper()
	naive := plan.UnindexedSource{Graph: hideIDs{db.Core}}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < starts; i++ {
		stmt := fmt.Sprintf(traverseKinds[kind], rng.Intn(traverseNodes))
		st, err := gql.Parse(stmt)
		if err != nil {
			tb.Fatal(err)
		}
		op, err := plan.Compile(st.Match)
		if err != nil {
			tb.Fatal(err)
		}
		res, err := plan.Collect(op, naive, st.Columns())
		if err != nil {
			tb.Fatal(err)
		}
		if got, want := rowBag(runStmt(tb, stmt, src)), rowBag(res.Rows); !slices.Equal(got, want) {
			head := func(bag []string) []string { return bag[:min(len(bag), 4)] }
			tb.Fatalf("%s: %d rows over id adjacency, %d over Neighbors; first ones %q and %q",
				stmt, len(got), len(want), head(got), head(want))
		}
	}
}

// TestTraverseGate runs the gate of the traverse benchmarks on a few
// starts of each kind.
func TestTraverseGate(t *testing.T) {
	db := traverseDB()
	for kind := range traverseKinds {
		gateTraverse(t, db, db.Core, kind, 2)
	}
}

var traverseSink [][]model.Value

func benchTraverse(b *testing.B, kind string) {
	db := traverseDB()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := plan.WithCancel(ctx, db.Core)
	gateTraverse(b, db, src, kind, 32)
	rng := rand.New(rand.NewSource(7))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		traverseSink = runStmt(b, fmt.Sprintf(traverseKinds[kind], rng.Intn(traverseNodes)), src)
	}
}

func BenchmarkTraverseHop2(b *testing.B)     { benchTraverse(b, "Hop2") }
func BenchmarkTraverseTri(b *testing.B)      { benchTraverse(b, "Tri") }
func BenchmarkTraverseVar2(b *testing.B)     { benchTraverse(b, "Var2") }
func BenchmarkTraverseHop2Rows(b *testing.B) { benchTraverse(b, "Hop2Rows") }

// The planner comparison: one count query per pattern over a seeded
// hub-skewed graph under the naive, cost-based and worst-case-optimal
// planners, which must agree on the count before anything is timed.
// Triangle and diamond are the cyclic cores the WCO operator exists for;
// reorder is a chain whose selective end is declared last, so the naive
// declaration-order plan starts from the worst scan. Reproduce the
// per-planner numbers (n=20000, degree 6, seed 42; about a minute, most of
// it in the diamond cells) with
//
//	go test -run '^$' -bench Planners ./internal/query/plan/
var (
	plannerPatterns = []string{"triangle", "diamond", "reorder"}
	plannerNames    = []string{"naive", "cost", "wco"}
)

// skewedGraph builds a hub-skewed "knows" graph (a few low-id hubs attract
// a quarter of all edges, so degree is heavy-tailed like real social
// graphs) with a tiny "hub" label partition the reorder pattern can anchor
// on.
func skewedGraph(tb testing.TB, nodes, degree int, seed int64) *memgraph.Graph {
	tb.Helper()
	g := memgraph.New()
	rng := rand.New(rand.NewSource(seed))
	hubs := max(nodes/200, 2)
	ids := make([]model.NodeID, nodes)
	for i := range ids {
		label := "person"
		switch {
		case i < hubs:
			label = "hub"
		case i%7 == 0:
			label = "place"
		}
		id, err := g.AddNode(label, model.Props("rank", i%100))
		if err != nil {
			tb.Fatal(err)
		}
		ids[i] = id
	}
	addEdge := func(label string, from, to int) {
		if _, err := g.AddEdge(label, ids[from], ids[to], nil); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < nodes; i++ {
		for d := 0; d < degree; d++ {
			to := rng.Intn(nodes)
			if rng.Intn(4) == 0 {
				to = rng.Intn(hubs * 8)
			}
			addEdge("knows", i, to)
		}
	}
	for i := 0; i < nodes/2; i++ {
		addEdge("near", rng.Intn(nodes), rng.Intn(nodes))
	}
	return g
}

// plannerSpec renders one named pattern as a counting MatchSpec: the count
// aggregate forces full enumeration (what the planner order decides)
// without materializing rows into the measurement.
func plannerSpec(pattern string) *plan.MatchSpec {
	spec := &plan.MatchSpec{
		Limit: -1,
		Aggs:  []plan.AggItem{{Name: "n", Fn: "count"}},
	}
	knows := func(from, to int) plan.EdgePat {
		return plan.EdgePat{From: from, To: to, Label: "knows", Dir: model.Out}
	}
	switch pattern {
	case "triangle":
		spec.Nodes = []plan.NodePat{{Var: "a"}, {Var: "b"}, {Var: "c"}}
		spec.Edges = []plan.EdgePat{knows(0, 1), knows(1, 2), knows(0, 2)}
	case "diamond":
		spec.Nodes = []plan.NodePat{{Var: "a"}, {Var: "b"}, {Var: "c"}, {Var: "d"}}
		spec.Edges = []plan.EdgePat{knows(0, 1), knows(0, 2), knows(1, 3), knows(2, 3)}
	case "reorder":
		// Both ends carry a label and one property, so the naive planner's
		// constraint-count heuristic ties and falls back to declaration
		// order — anchoring on the populous person partition. Cardinality
		// statistics see that hub{rank:0} is a near-singleton and anchor
		// there instead.
		spec.Nodes = []plan.NodePat{
			{Var: "a", Label: "person", Props: model.Props("rank", 0)},
			{Var: "b"},
			{Var: "c", Label: "hub", Props: model.Props("rank", 0)},
		}
		spec.Edges = []plan.EdgePat{knows(0, 1), knows(1, 2)}
	}
	return spec
}

// comparePlanners compiles pattern under each of plannerNames, in that
// order, and fails tb unless every plan returns the same non-zero count: a
// speedup that changes the answer is a bug, not a win.
func comparePlanners(tb testing.TB, g *memgraph.Graph, pattern string) []plan.Op {
	tb.Helper()
	st, err := g.PlanStats()
	if err != nil {
		tb.Fatal(err)
	}
	compile := []func(*plan.MatchSpec) (plan.Op, error){
		plan.Compile,
		func(s *plan.MatchSpec) (plan.Op, error) {
			op, _, err := plan.Planner{Stats: st}.Compile(s)
			return op, err
		},
		func(s *plan.MatchSpec) (plan.Op, error) {
			op, _, err := plan.Planner{Stats: st, WCO: true}.Compile(s)
			return op, err
		},
	}
	src := plan.UnindexedSource{Graph: g}
	ops := make([]plan.Op, len(compile))
	var want int64
	for i, c := range compile {
		op, err := c(plannerSpec(pattern))
		if err != nil {
			tb.Fatalf("%s %s: %v", pattern, plannerNames[i], err)
		}
		ops[i] = op
		n := countRows(tb, op, src)
		if i == 0 {
			want = n
		}
		if n != want || n == 0 {
			tb.Fatalf("%s: planner %s counted %d, %s counted %d", pattern, plannerNames[i], n, plannerNames[0], want)
		}
	}
	return ops
}

// countRows runs a compiled count query and returns its count.
func countRows(tb testing.TB, op plan.Op, src plan.Source) int64 {
	tb.Helper()
	res, err := plan.Collect(op, src, []string{"n"})
	if err != nil {
		tb.Fatal(err)
	}
	n, ok := res.Rows[0][0].AsInt()
	if !ok {
		tb.Fatalf("count is not an int: %v", res.Rows[0][0])
	}
	return n
}

// TestPlannersAgreeOnSkewedGraph is the gate BenchmarkPlanners times
// behind, run small: all three planners agree on every pattern, and the
// WCO planner really intersects on the cyclic cores.
func TestPlannersAgreeOnSkewedGraph(t *testing.T) {
	g := skewedGraph(t, 400, 3, 7)
	for _, pattern := range plannerPatterns {
		ops := comparePlanners(t, g, pattern)
		cyclic := pattern != "reorder"
		if wco := ops[2].String(); cyclic != strings.Contains(wco, "Intersect") {
			t.Errorf("%s: WCO plan %s; want Intersect exactly on the cyclic cores", pattern, wco)
		}
	}
}

var plannerSink int64

func BenchmarkPlanners(b *testing.B) {
	g := skewedGraph(b, 20000, 6, 42)
	src := plan.UnindexedSource{Graph: g}
	for _, pattern := range plannerPatterns {
		b.Run(pattern, func(b *testing.B) {
			ops := comparePlanners(b, g, pattern)
			for i, name := range plannerNames {
				b.Run(name, func(b *testing.B) {
					for n := 0; n < b.N; n++ {
						plannerSink = countRows(b, ops[i], src)
					}
				})
			}
		})
	}
}

// TestExpandAllocsDoNotScaleWithBindings: a compiled two-hop count(*)
// writes its bindings into one row and reads adjacency into one buffer per
// operator, so running it allocates the same from a node of degree 8 as
// from a hub of degree 512 with two hundred times the bindings — up to the
// few doublings by which the hub's buffers grow.
func TestExpandAllocsDoNotScaleWithBindings(t *testing.T) {
	db, err := neograph.New(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	node := func(idx int) model.NodeID {
		id, err := db.Core.AddNode("N", model.Props("idx", idx))
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	link := func(a, b model.NodeID) {
		if _, err := db.Core.AddEdge("link", a, b, nil); err != nil {
			t.Fatal(err)
		}
	}
	// idx 0: a hub of 512 spokes joined in a ring; idx 1: 8 leaves.
	const hubIdx, smallIdx, spokes, leaves = 0, 1, 512, 8
	hub, small := node(hubIdx), node(smallIdx)
	ring := make([]model.NodeID, spokes)
	for i := range ring {
		ring[i] = node(10 + i)
		link(hub, ring[i])
	}
	for i := range ring {
		link(ring[i], ring[(i+1)%spokes])
	}
	for i := 0; i < leaves; i++ {
		link(small, node(1000+i))
	}
	if err := db.CreateIndex("idx"); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := plan.WithCancel(ctx, db.Core)
	measure := func(idx int) (allocs float64, bindings int64) {
		st, err := gql.Parse(fmt.Sprintf(traverseKinds["Hop2"], idx))
		if err != nil {
			t.Fatal(err)
		}
		op, err := plan.CompileFor(st.Match, src)
		if err != nil {
			t.Fatal(err)
		}
		allocs = testing.AllocsPerRun(20, func() {
			res, err := plan.Collect(op, src, st.Columns())
			if err != nil {
				t.Fatal(err)
			}
			bindings, _ = res.Rows[0][0].AsInt()
		})
		return allocs, bindings
	}
	smallAllocs, smallRows := measure(smallIdx)
	hubAllocs, hubRows := measure(hubIdx)
	t.Logf("degree %d: %d bindings, %.0f allocs; degree %d: %d bindings, %.0f allocs",
		leaves, smallRows, smallAllocs, spokes, hubRows, hubAllocs)
	if smallRows != leaves || hubRows != 3*spokes {
		t.Fatalf("bindings = %d and %d, want %d and %d", smallRows, hubRows, leaves, 3*spokes)
	}
	if hubAllocs > smallAllocs+16 {
		t.Errorf("allocations scale with bindings: %.0f from the hub against %.0f from the degree-8 node", hubAllocs, smallAllocs)
	}
}
