// Benchmark harness: one benchmark family per table of the survey plus the
// ablations DESIGN.md calls out. The feature matrices themselves are exact
// (regenerated and diffed in internal/report); the benchmarks here measure
// the *cost* of each compared capability so the trade-offs the survey
// discusses are observable, and BenchmarkPerfSweep reproduces the shape of
// the performance study the survey cites (Dominguez-Sal et al. [11]).
package gdbm_test

import (
	"context"
	"fmt"
	"os"
	"slices"
	"testing"

	"gdbm"
	"gdbm/internal/engine/capability"
	"gdbm/internal/engines/bitmapdb"
	"gdbm/internal/engines/propcore"
	"gdbm/internal/engines/sonesdb"
	"gdbm/internal/engines/triplestore"
	"gdbm/internal/gen"
	"gdbm/internal/index"
	"gdbm/internal/kvgraph"
	"gdbm/internal/memgraph"
	"gdbm/internal/model"
	"gdbm/internal/pastql"
	"gdbm/internal/storage/kv"
	"gdbm/internal/storage/pager"
)

// openEngine opens an engine, giving disk-requiring archetypes a temp dir.
func openEngine(b *testing.B, name string) gdbm.Engine {
	b.Helper()
	opts := gdbm.Options{}
	if capability.NeedsDir(name) {
		opts.Dir = b.TempDir()
	}
	e, err := gdbm.Open(name, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Close() })
	return e
}

func seedRMAT(b *testing.B, e gdbm.Engine, nodes int) []gdbm.NodeID {
	b.Helper()
	ids, err := gdbm.Generate(gdbm.GenSpec{Kind: gdbm.RMAT, Nodes: nodes, EdgesPerNode: 4, Seed: 99}, e.(gdbm.Loader))
	if err != nil {
		b.Fatal(err)
	}
	return ids
}

// --- Table I: data storing — ingest cost per storage scheme ---

func BenchmarkTableI_Ingest(b *testing.B) {
	cases := []struct {
		name string
		dir  bool
	}{
		{"neograph/main-memory", false},
		{"neograph/external-memory", true},
		{"vertexkv/backend-btree", true},
		{"filamentdb/backend-kv", true},
		{"gstore/external-only", true},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			name := c.name[:indexByte(c.name, '/')]
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				opts := gdbm.Options{}
				if c.dir {
					opts.Dir = b.TempDir()
				}
				e, err := gdbm.Open(name, opts)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := gdbm.Generate(gdbm.GenSpec{Kind: gdbm.ErdosRenyi, Nodes: 500, EdgesPerNode: 3, Seed: 1}, e.(gdbm.Loader)); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				e.Close()
			}
		})
	}
}

func indexByte(s string, c byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == c {
			return i
		}
	}
	return len(s)
}

// --- Table II: operation through a language vs through the API ---

func BenchmarkTableII_APIInsert(b *testing.B) {
	e := openEngine(b, "neograph")
	api := e.(gdbm.GraphAPI)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := api.AddNode("Person", gdbm.Props("i", i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableII_QLInsert(b *testing.B) {
	e := openEngine(b, "neograph")
	q := e.(gdbm.Querier)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gdbm.QueryContext(context.Background(), q, fmt.Sprintf(`CREATE (n:Person {i: %d})`, i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableII_DDL(b *testing.B) {
	e := openEngine(b, "sonesdb")
	q := e.(gdbm.Querier)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gdbm.QueryContext(context.Background(), q, fmt.Sprintf(`CREATE VERTEX TYPE T%d (name STRING)`, i)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table III: structure construction cost per graph model ---

func BenchmarkTableIII_Structures(b *testing.B) {
	b.Run("simple-graph", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := memgraph.New()
			a, _ := g.AddNode("N", nil)
			c, _ := g.AddNode("N", nil)
			g.AddEdge("e", a, c, nil)
		}
	})
	b.Run("attributed-graph", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := memgraph.New()
			a, _ := g.AddNode("N", model.Props("k", 1, "s", "x"))
			c, _ := g.AddNode("N", model.Props("k", 2))
			g.AddEdge("e", a, c, model.Props("w", 0.5))
		}
	})
	b.Run("hypergraph", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := propcore.NewHyper(propcore.New(memgraph.New()))
			a, _ := g.AddNode("N", nil)
			c, _ := g.AddNode("N", nil)
			d, _ := g.AddNode("N", nil)
			g.AddHyperEdge("e", []model.NodeID{a, c, d}, nil)
		}
	})
	b.Run("nested-graph", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := memgraph.NewNested()
			a, _ := g.AddNode("N", nil)
			child := memgraph.NewNested()
			child.AddNode("inner", nil)
			g.Nest(a, child)
		}
	})
}

// --- Table IV: schema-checked vs schemaless instance creation ---

func BenchmarkTableIV_SchemalessInsert(b *testing.B) {
	e := openEngine(b, "neograph") // no schema, no types checking
	api := e.(gdbm.GraphAPI)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		api.AddNode("Person", gdbm.Props("name", fmt.Sprintf("p%d", i)))
	}
}

func BenchmarkTableIV_TypedInsert(b *testing.B) {
	e := openEngine(b, "bitmapdb") // types checking on every insert
	db := e.(*bitmapdb.DB)
	db.Schema().EnsureNodeType("Person", gdbm.Props("name", ""))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.AddNode("Person", gdbm.Props("name", fmt.Sprintf("p%d", i)))
	}
}

// --- Table V: the query facilities ---

func BenchmarkTableV_RetrievalQL(b *testing.B) {
	e := openEngine(b, "neograph")
	seedRMAT(b, e, 500)
	q := e.(gdbm.Querier)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gdbm.QueryContext(context.Background(), q, `MATCH (n:N) WHERE n.idx = 250 RETURN n.idx AS i`); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableV_Reasoning materializes the RDFS closure of a subClassOf
// chain c0 ⊂ … ⊂ cn plus one "x type c0" fact: n(n+1)/2 derived statements,
// n of them types. The second call on the 160-long chain derives nothing.
func BenchmarkTableV_Reasoning(b *testing.B) {
	chain := func(b *testing.B, n int) *triplestore.DB {
		e, err := gdbm.Open("triplestore", gdbm.Options{})
		if err != nil {
			b.Fatal(err)
		}
		ts := e.(*triplestore.DB)
		for j := 0; j < n; j++ {
			if err := ts.AddTriple(fmt.Sprintf("c%d", j), "subClassOf", fmt.Sprintf("c%d", j+1)); err != nil {
				b.Fatal(err)
			}
		}
		if err := ts.AddTriple("x", "type", "c0"); err != nil {
			b.Fatal(err)
		}
		return ts
	}
	materialize := func(b *testing.B, ts *triplestore.DB, want int) {
		if n, err := ts.Materialize(); err != nil || n != want {
			b.Fatalf("derived %d (%v), want %d", n, err, want)
		}
	}
	for _, c := range []struct {
		name string
		n    int
		want int
	}{{"chain20", 20, 210}, {"chain160-first", 160, 12880}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ts := chain(b, c.n)
				b.StartTimer()
				materialize(b, ts, c.want)
				b.StopTimer()
				ts.Close()
			}
		})
	}
	b.Run("chain160-second", func(b *testing.B) {
		ts := chain(b, 160)
		defer ts.Close()
		materialize(b, ts, 12880)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			materialize(b, ts, 0)
		}
	})
}

func BenchmarkTableV_AnalysisShortestPath(b *testing.B) {
	e := openEngine(b, "bitmapdb")
	ids := seedRMAT(b, e, 2000)
	es := e.Essentials(context.Background())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		es.ShortestPath(ids[i%100], ids[len(ids)-1-(i%100)])
	}
}

// --- Table VI: integrity constraint validation overhead ---

func BenchmarkTableVI_ConstraintOverhead(b *testing.B) {
	b.Run("no-constraints", func(b *testing.B) {
		e := openEngine(b, "neograph")
		api := e.(gdbm.GraphAPI)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			api.AddNode("P", gdbm.Props("name", fmt.Sprintf("n%d", i)))
		}
	})
	b.Run("identity+cardinality", func(b *testing.B) {
		e := openEngine(b, "sonesdb")
		db := e.(*sonesdb.DB)
		db.AddIdentity("P", "name")
		db.AddCardinality("owns", 2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.AddNode("P", gdbm.Props("name", fmt.Sprintf("n%d", i))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Table VII: one bench per essential query class, per engine surface ---

func benchEssential(b *testing.B, op string, run func(b *testing.B, e gdbm.Engine, ids []gdbm.NodeID, es gdbm.Essentials)) {
	for _, name := range gdbm.Engines() {
		e := openEngine(b, name)
		es := e.Essentials(context.Background())
		exposed := map[string]bool{
			"adjacency": es.NodeAdjacency != nil,
			"khood":     es.KNeighborhood != nil,
			"fixed":     es.FixedLengthPaths != nil,
			"shortest":  es.ShortestPath != nil,
			"summarize": es.Summarization != nil,
		}
		if !exposed[op] {
			continue
		}
		ids := seedRMAT(b, e, 1000)
		b.Run(e.SurveyRow(), func(b *testing.B) {
			run(b, e, ids, es)
		})
	}
}

func BenchmarkTableVII_Adjacency(b *testing.B) {
	benchEssential(b, "adjacency", func(b *testing.B, e gdbm.Engine, ids []gdbm.NodeID, es gdbm.Essentials) {
		for i := 0; i < b.N; i++ {
			es.NodeAdjacency(ids[i%len(ids)], ids[(i*7)%len(ids)])
		}
	})
}

func BenchmarkTableVII_KNeighborhood(b *testing.B) {
	benchEssential(b, "khood", func(b *testing.B, e gdbm.Engine, ids []gdbm.NodeID, es gdbm.Essentials) {
		for i := 0; i < b.N; i++ {
			es.KNeighborhood(ids[i%len(ids)], 2)
		}
	})
}

func BenchmarkTableVII_FixedLengthPaths(b *testing.B) {
	benchEssential(b, "fixed", func(b *testing.B, e gdbm.Engine, ids []gdbm.NodeID, es gdbm.Essentials) {
		for i := 0; i < b.N; i++ {
			es.FixedLengthPaths(ids[i%len(ids)], ids[(i*13)%len(ids)], 3)
		}
	})
}

func BenchmarkTableVII_ShortestPath(b *testing.B) {
	benchEssential(b, "shortest", func(b *testing.B, e gdbm.Engine, ids []gdbm.NodeID, es gdbm.Essentials) {
		for i := 0; i < b.N; i++ {
			es.ShortestPath(ids[i%len(ids)], ids[(i*31)%len(ids)])
		}
	})
}

func BenchmarkTableVII_Summarization(b *testing.B) {
	benchEssential(b, "summarize", func(b *testing.B, e gdbm.Engine, ids []gdbm.NodeID, es gdbm.Essentials) {
		for i := 0; i < b.N; i++ {
			es.Summarization(gdbm.AggAvg, "N", "weight")
		}
	})
}

// Pattern matching and regular path queries are unsupported by every
// surveyed engine surface (Table VII's empty columns); pattern matching's
// cost is measured on the shared matcher, plan.MatchPattern, instead.
func BenchmarkTableVII_PatternMatchingSubstrate(b *testing.B) {
	g := memgraph.New()
	sink := &gen.MemSink{}
	gen.Generate(gen.Spec{Kind: gen.ER, Nodes: 300, EdgesPerNode: 3, Seed: 5}, sink)
	idmap := map[model.NodeID]model.NodeID{}
	for _, n := range sink.NodesList {
		id, _ := g.AddNode(n.Label, n.Props)
		idmap[n.ID] = id
	}
	for _, e := range sink.EdgesList {
		g.AddEdge(e.Label, idmap[e.From], idmap[e.To], nil)
	}
	pat, _ := gdbm.NewPattern(
		[]gdbm.PatternNode{{Var: "a"}, {Var: "b"}, {Var: "c"}},
		[]gdbm.PatternEdge{{From: 0, To: 1, Label: "link"}, {From: 1, To: 2, Label: "link"}},
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gdbm.MatchPattern(context.Background(), g, pat, 100)
	}
}

// --- Table VIII: the past-language profiles on the formal core ---

func BenchmarkTableVIII_PastLanguages(b *testing.B) {
	g := memgraph.New()
	ids := make([]model.NodeID, 50)
	for i := range ids {
		ids[i], _ = g.AddNode("V", nil)
	}
	for i := 0; i+1 < len(ids); i++ {
		g.AddEdge("a", ids[i], ids[i+1], nil)
	}
	for _, l := range pastql.Languages() {
		if l.Ops.RegularPaths == nil {
			continue
		}
		b.Run(l.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := l.Ops.RegularPaths(g, ids[0], "a/a/a"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- The cited performance study: R-MAT sweep across engines ---

func BenchmarkPerfSweep(b *testing.B) {
	for _, nodes := range []int{1000, 4000} {
		for _, name := range []string{"neograph", "bitmapdb", "vertexkv", "triplestore"} {
			b.Run(fmt.Sprintf("%s/n%d", name, nodes), func(b *testing.B) {
				e := openEngine(b, name)
				ids := seedRMAT(b, e, nodes)
				es := e.Essentials(context.Background())
				if es.KNeighborhood == nil {
					b.Skip("no traversal surface")
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					es.KNeighborhood(ids[i%len(ids)], 2)
				}
			})
		}
	}
}

// --- Ablations (DESIGN.md) ---

// BenchmarkAblationIndexKind times equality probes on both index kinds in
// two shapes: "lookup", 50 values of 200 ids each, and "unique", 20 000
// values of one id each, the shape of the served idx index. Id i holds
// value i mod the value count. Before timing, it fails unless every value
// visits exactly its expected ids in ascending order, so both kinds agree;
// every timed probe must visit as many ids.
func BenchmarkAblationIndexKind(b *testing.B) {
	kinds := []struct {
		name string
		open func() index.Index
	}{
		{"bitmap", func() index.Index { return index.NewBitmap() }},
		{"hash", func() index.Index { return index.NewHash() }},
	}
	shapes := []struct {
		name        string
		values, ids int
	}{{"lookup", 50, 10000}, {"unique", 20000, 20000}}
	for _, k := range kinds {
		for _, s := range shapes {
			idx := k.open()
			for i := 0; i < s.ids; i++ {
				idx.Add(model.Int(int64(i%s.values)), uint64(i))
			}
			per := s.ids / s.values
			var got, want []uint64
			for v := 0; v < s.values; v++ {
				got, want = got[:0], want[:0]
				for id := v; id < s.ids; id += s.values {
					want = append(want, uint64(id))
				}
				idx.Lookup(model.Int(int64(v)), func(id uint64) bool { got = append(got, id); return true })
				if !slices.Equal(got, want) {
					b.Fatalf("%s/%s: value %d visits %v, want %v", k.name, s.name, v, got, want)
				}
			}
			b.Run(k.name+"/"+s.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					n := 0
					idx.Lookup(model.Int(int64(i%s.values)), func(uint64) bool { n++; return true })
					if n != per {
						b.Fatalf("probe %d visits %d ids, want %d", i, n, per)
					}
				}
			})
		}
	}
}

func BenchmarkAblationAdjacency(b *testing.B) {
	builders := map[string]func() model.MutableGraph{
		"adjacency-list": func() model.MutableGraph { return memgraph.New() },
		"kv-encoded":     func() model.MutableGraph { return kvgraph.New(kv.NewMemory()) },
	}
	for name, build := range builders {
		g := build()
		sink := graphSink{g}
		gen.Generate(gen.Spec{Kind: gen.ER, Nodes: 2000, EdgesPerNode: 4, Seed: 3}, sink)
		b.Run(name+"/expand", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				id := model.NodeID(1 + i%2000)
				g.Neighbors(id, model.Both, func(model.Edge, model.Node) bool { return true })
			}
		})
	}
}

type graphSink struct{ g model.MutableGraph }

func (s graphSink) LoadNode(label string, props model.Properties) (model.NodeID, error) {
	return s.g.AddNode(label, props)
}
func (s graphSink) LoadEdge(label string, from, to model.NodeID, props model.Properties) (model.EdgeID, error) {
	return s.g.AddEdge(label, from, to, props)
}

// BenchmarkAblationRPQ times the two path semantics through the one path
// operator on a DAG, where every accepted walk is a simple path, so both
// must return the same nodes: reachability visits each (node, state) pair
// of the product once, simple paths enumerate every path. It fails before
// timing anything if the answers differ.
func BenchmarkAblationRPQ(b *testing.B) {
	g := memgraph.New()
	ids := make([]model.NodeID, 60)
	for i := range ids {
		ids[i], _ = g.AddNode("V", nil)
	}
	for i := 0; i+1 < len(ids); i++ {
		g.AddEdge("a", ids[i], ids[i+1], nil)
		if i%3 == 0 && i+7 < len(ids) {
			g.AddEdge("b", ids[i], ids[i+7], nil)
		}
	}
	pe, err := gdbm.CompilePathExpr("a/(a|b)*")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	semantics := []struct {
		name string
		sem  gdbm.PathSemantics
	}{{"reachability", gdbm.Reachability}, {"simple-paths", gdbm.SimplePaths}}
	var answers [][]model.NodeID
	for _, s := range semantics {
		nodes, err := gdbm.MatchPath(ctx, g, pe, ids[0], s.sem)
		if err != nil {
			b.Fatal(err)
		}
		slices.Sort(nodes)
		answers = append(answers, nodes)
	}
	if !slices.Equal(answers[0], answers[1]) || len(answers[0]) != len(ids)-1 {
		b.Fatalf("semantics disagree on a DAG: reachability %v, simple paths %v", answers[0], answers[1])
	}
	for _, s := range semantics {
		b.Run(s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := gdbm.MatchPath(ctx, g, pe, ids[0], s.sem); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationBufferPool(b *testing.B) {
	for _, pool := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("pool%d", pool), func(b *testing.B) {
			dir := b.TempDir()
			pg, err := pager.Open(dir+"/bp.pg", pager.Options{PoolPages: pool})
			if err != nil {
				b.Fatal(err)
			}
			defer pg.Close()
			var pages []pager.PageID
			payload := make([]byte, 512)
			for i := 0; i < 4096; i++ {
				id, err := pg.Allocate()
				if err != nil {
					b.Fatal(err)
				}
				pg.Write(id, payload)
				pages = append(pages, id)
			}
			b.ResetTimer()
			// Skewed access: 90% of reads hit a 64-page hot set, the rest
			// sweep the cold range — the regime where pool size matters.
			for i := 0; i < b.N; i++ {
				var id pager.PageID
				if i%10 != 0 {
					id = pages[i%64]
				} else {
					id = pages[(i*37)%len(pages)]
				}
				if _, err := pg.Read(id); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			hits, misses := pg.Stats()
			if hits+misses > 0 {
				b.ReportMetric(float64(hits)/float64(hits+misses), "hit-rate")
			}
		})
	}
}

// BenchmarkLoadDisk times a load into a disk engine configured as the
// cold_disk workload's: a gen.BA graph of 6 000 nodes and 4 edges per node
// into neograph over a 128-page pool with the caches off. It reports
// elements (nodes plus edges) loaded per second, and fails unless the last
// load answers as a memgraph load of the same spec: Order, Size, and every
// 97th node's record and out-adjacency.
func BenchmarkLoadDisk(b *testing.B) {
	spec := gen.Spec{Kind: gen.BA, Nodes: 6000, EdgesPerNode: 4, Seed: 1}
	ref := memgraph.New()
	refIDs, err := gen.Generate(spec, graphSink{ref})
	if err != nil {
		b.Fatal(err)
	}
	var e gdbm.Engine
	var ids []gdbm.NodeID
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if e != nil {
			e.Close()
		}
		e, err = gdbm.Open("neograph", gdbm.Options{Dir: b.TempDir(), PoolPages: 128})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if ids, err = gen.Generate(spec, e.(gdbm.Loader)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	defer e.Close()
	b.ReportMetric(float64(b.N*(ref.Order()+ref.Size()))/b.Elapsed().Seconds(), "elems/s")

	g := e.(model.Graph)
	if g.Order() != ref.Order() || g.Size() != ref.Size() {
		b.Fatalf("loaded %d nodes, %d edges; memgraph holds %d, %d", g.Order(), g.Size(), ref.Order(), ref.Size())
	}
	index := func(ids []model.NodeID) map[model.NodeID]int {
		m := make(map[model.NodeID]int, len(ids))
		for i, id := range ids {
			m[id] = i
		}
		return m
	}
	at, refAt := index(ids), index(refIDs)
	// out renders node id's out-adjacency as sorted "label>far" lines, far
	// as its position in creation order.
	out := func(g model.Graph, id model.NodeID, at map[model.NodeID]int) []string {
		var adj []string
		if err := g.Neighbors(id, model.Out, func(e model.Edge, n model.Node) bool {
			adj = append(adj, fmt.Sprintf("%s>%d %v", e.Label, at[n.ID], e.Props))
			return true
		}); err != nil {
			b.Fatal(err)
		}
		slices.Sort(adj)
		return adj
	}
	for i := 0; i < len(ids); i += 97 {
		n, err := g.Node(ids[i])
		if err != nil {
			b.Fatal(err)
		}
		want, err := ref.Node(refIDs[i])
		if err != nil {
			b.Fatal(err)
		}
		if n.Label != want.Label || !n.Props.Equal(want.Props) {
			b.Fatalf("node %d: %s %v, memgraph %s %v", i, n.Label, n.Props, want.Label, want.Props)
		}
		if got, want := out(g, ids[i], at), out(ref, refIDs[i], refAt); !slices.Equal(got, want) {
			b.Fatalf("node %d out-adjacency: %v, memgraph %v", i, got, want)
		}
	}
}

// BenchmarkQueryPlanner measures the planner's index use: the same lookup
// with and without a property index.
func BenchmarkQueryPlanner(b *testing.B) {
	mk := func(withIndex bool) (gdbm.Querier, func()) {
		e, err := gdbm.Open("neograph", gdbm.Options{})
		if err != nil {
			b.Fatal(err)
		}
		l := e.(gdbm.Loader)
		for i := 0; i < 3000; i++ {
			l.LoadNode("P", gdbm.Props("idx", i))
		}
		if withIndex {
			type indexer interface{ CreateIndex(string) error }
			if err := e.(indexer).CreateIndex("idx"); err != nil {
				b.Fatal(err)
			}
		}
		return e.(gdbm.Querier), func() { e.Close() }
	}
	b.Run("full-scan", func(b *testing.B) {
		q, done := mk(false)
		defer done()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			gdbm.QueryContext(context.Background(), q, `MATCH (p:P {idx: 1500}) RETURN p.idx AS i`)
		}
	})
	b.Run("hash-index", func(b *testing.B) {
		q, done := mk(true)
		defer done()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			gdbm.QueryContext(context.Background(), q, `MATCH (p:P {idx: 1500}) RETURN p.idx AS i`)
		}
	})
}

func TestMain(m *testing.M) {
	os.Exit(m.Run())
}
