package plan_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"gdbm/internal/engine"
	"gdbm/internal/engines/neograph"
	"gdbm/internal/gen"
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

var traverseSink [][]model.Value

func benchTraverse(b *testing.B, kind string) {
	db := traverseDB()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := plan.WithCancel(ctx, db.Core)
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
