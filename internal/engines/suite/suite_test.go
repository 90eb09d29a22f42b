// Package suite runs the cross-engine conformance tests: every registered
// engine is seeded through the common Loader surface and its declared
// capabilities are exercised.
package suite

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"gdbm/internal/algo"
	"gdbm/internal/engine"
	"gdbm/internal/engine/capability"
	"gdbm/internal/gen"
	"gdbm/internal/model"
	"gdbm/internal/obs"
	"gdbm/internal/query/plan"

	_ "gdbm/internal/engines/bitmapdb"
	_ "gdbm/internal/engines/filamentdb"
	_ "gdbm/internal/engines/gstore"
	_ "gdbm/internal/engines/hyperdb"
	_ "gdbm/internal/engines/infinigraph"
	_ "gdbm/internal/engines/neograph"
	_ "gdbm/internal/engines/sonesdb"
	_ "gdbm/internal/engines/triplestore"
	_ "gdbm/internal/engines/vertexkv"
)

// openAll opens every registered engine, giving disk-requiring archetypes a
// temp dir.
func openAll(t *testing.T) map[string]engine.Engine {
	t.Helper()
	out := map[string]engine.Engine{}
	for _, name := range engine.Names() {
		opts := engine.Options{}
		if capability.NeedsDir(name) {
			opts.Dir = t.TempDir()
		}
		e, err := engine.Open(name, opts)
		if err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
		t.Cleanup(func() { e.Close() })
		out[name] = e
	}
	return out
}

// seed loads the probe graph: a chain n0->n1->n2->n3 plus a hub.
// Returns the per-engine node ids.
func seed(t *testing.T, e engine.Engine) []model.NodeID {
	t.Helper()
	l, ok := e.(engine.Loader)
	if !ok {
		t.Fatalf("%s does not implement Loader", e.Name())
	}
	ids := make([]model.NodeID, 5)
	names := []string{"n0", "n1", "n2", "n3", "hub"}
	for i, nm := range names {
		id, err := l.LoadNode("Thing", model.Props("name", nm, "rank", i))
		if err != nil {
			t.Fatalf("%s LoadNode: %v", e.Name(), err)
		}
		ids[i] = id
	}
	for i := 0; i < 3; i++ {
		if _, err := l.LoadEdge("next", ids[i], ids[i+1], nil); err != nil {
			t.Fatalf("%s LoadEdge: %v", e.Name(), err)
		}
	}
	for i := 0; i < 4; i++ {
		if _, err := l.LoadEdge("spoke", ids[4], ids[i], nil); err != nil {
			t.Fatalf("%s LoadEdge hub: %v", e.Name(), err)
		}
	}
	return ids
}

func TestAllEnginesRegistered(t *testing.T) {
	names := engine.Names()
	if len(names) != 9 {
		t.Fatalf("registered engines = %v", names)
	}
	rows := map[string]bool{}
	for _, n := range names {
		e, err := engine.Open(n, engine.Options{Dir: t.TempDir()})
		if err != nil {
			// sonesdb rejects Dir; retry memory-only.
			e, err = engine.Open(n, engine.Options{})
			if err != nil {
				t.Fatalf("open %s: %v", n, err)
			}
		}
		rows[e.SurveyRow()] = true
		e.Close()
	}
	for _, want := range []string{"AllegroGraph", "DEX", "Filament", "G-Store", "HyperGraphDB", "InfiniteGraph", "Neo4j", "Sones", "VertexDB"} {
		if !rows[want] {
			t.Errorf("no engine reproduces survey row %q", want)
		}
	}
	if _, err := engine.Open("nope", engine.Options{}); !errors.Is(err, model.ErrNotFound) {
		t.Errorf("unknown engine: %v", err)
	}
}

func TestEssentialsMatchDeclaredProfile(t *testing.T) {
	// Table VII profiles: which essential-query classes each archetype's
	// surface must (and must not) expose.
	type profile struct {
		adj, khood, fixed, shortest, summ bool
	}
	want := map[string]profile{
		"AllegroGraph":  {adj: true, khood: true, summ: true},
		"DEX":           {adj: true, khood: true, fixed: true, shortest: true, summ: true},
		"Filament":      {adj: true, khood: true, summ: true},
		"G-Store":       {adj: true, khood: true, fixed: true, shortest: true, summ: true},
		"HyperGraphDB":  {adj: true, summ: true},
		"InfiniteGraph": {adj: true, khood: true, fixed: true, shortest: true, summ: true},
		"Neo4j":         {adj: true, khood: true, fixed: true, shortest: true, summ: true},
		"Sones":         {adj: true, summ: true},
		"VertexDB":      {adj: true, khood: true, fixed: true, summ: true},
	}
	for name, e := range openAll(t) {
		p, ok := want[e.SurveyRow()]
		if !ok {
			t.Fatalf("%s: unknown row %s", name, e.SurveyRow())
		}
		es := e.Essentials(context.Background())
		check := func(what string, got, want bool) {
			if got != want {
				t.Errorf("%s: %s exposed=%v, profile says %v", name, what, got, want)
			}
		}
		check("NodeAdjacency", es.NodeAdjacency != nil, p.adj)
		check("KNeighborhood", es.KNeighborhood != nil, p.khood)
		check("FixedLengthPaths", es.FixedLengthPaths != nil, p.fixed)
		check("ShortestPath", es.ShortestPath != nil, p.shortest)
		check("Summarization", es.Summarization != nil, p.summ)
	}
}

func TestEssentialsExecuteCorrectly(t *testing.T) {
	for name, e := range openAll(t) {
		t.Run(name, func(t *testing.T) {
			ids := seed(t, e)
			es := e.Essentials(context.Background())
			if es.NodeAdjacency != nil {
				ok, err := es.NodeAdjacency(ids[0], ids[1])
				if err != nil || !ok {
					t.Errorf("adjacency(n0,n1) = %v, %v", ok, err)
				}
				ok, err = es.NodeAdjacency(ids[0], ids[3])
				if err != nil || ok {
					t.Errorf("adjacency(n0,n3) = %v, %v", ok, err)
				}
			}
			if es.KNeighborhood != nil {
				nb, err := es.KNeighborhood(ids[0], 1)
				if err != nil {
					t.Fatalf("khood: %v", err)
				}
				set := map[model.NodeID]bool{}
				for _, id := range nb {
					set[id] = true
				}
				// n0 touches n1 and hub. The triple engine also counts the
				// type/rank term nodes among the neighbors — correct for
				// its model — so assert containment, and exact size for
				// property-graph engines.
				if !set[ids[1]] || !set[ids[4]] {
					t.Errorf("khood(n0,1) = %v, missing n1/hub", nb)
				}
				if name != "triplestore" && len(nb) != 2 {
					t.Errorf("khood(n0,1) = %v", nb)
				}
			}
			if es.FixedLengthPaths != nil {
				paths, err := es.FixedLengthPaths(ids[0], ids[2], 2)
				if err != nil || len(paths) != 1 {
					t.Errorf("fixed paths = %v, %v", paths, err)
				}
			}
			if es.ShortestPath != nil {
				p, err := es.ShortestPath(ids[0], ids[3])
				if err != nil || p.Len() != 3 {
					t.Errorf("shortest = %v, %v", p, err)
				}
			}
			if es.Summarization != nil {
				v, err := es.Summarization(algo.AggCount, "Thing", "")
				if err != nil {
					t.Fatalf("summarize: %v", err)
				}
				if n, _ := v.AsInt(); n != 5 {
					t.Errorf("count Thing = %v", v)
				}
			}
		})
	}
}

// storageEngines names every registered engine whose Features() declare
// External memory or Backend storage (Table I): the cells a reopen must
// back.
func storageEngines(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, name := range engine.Names() {
		opts := engine.Options{}
		if capability.NeedsDir(name) {
			opts.Dir = t.TempDir()
		}
		e, err := engine.Open(name, opts)
		if err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
		f := e.Features()
		if err := e.Close(); err != nil {
			t.Fatalf("close %s: %v", name, err)
		}
		if f.ExternalMemory != engine.No || f.BackendStorage != engine.No {
			out = append(out, name)
		}
	}
	return out
}

// reopenAnswers is what the persistence probe reads back: the label
// count, a-b adjacency and the property sum through Essentials, plus the
// label lookup and the label scan where the engine is a plan.Source.
type reopenAnswers struct {
	count, sum       string
	adjacent         bool
	indexed, scanned []model.NodeID
	handled          bool
}

func readAnswers(t *testing.T, e engine.Engine, a, b model.NodeID) reopenAnswers {
	t.Helper()
	es := e.Essentials(context.Background())
	var ans reopenAnswers
	v, err := es.Summarization(algo.AggCount, "P", "")
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	ans.count = v.String()
	if v, err = es.Summarization(algo.AggSum, "P", "w"); err != nil {
		t.Fatalf("sum: %v", err)
	}
	ans.sum = v.String()
	if ans.adjacent, err = es.NodeAdjacency(a, b); err != nil {
		t.Errorf("adjacency: %v", err)
	}
	src, ok := e.(plan.Source)
	if !ok {
		return ans
	}
	if ans.handled, err = src.IndexedNodes("P", "", model.Null(), func(n model.Node) bool {
		ans.indexed = append(ans.indexed, n.ID)
		return true
	}); err != nil {
		t.Fatalf("IndexedNodes: %v", err)
	}
	if err := src.Nodes(func(n model.Node) bool {
		if n.Label == "P" {
			ans.scanned = append(ans.scanned, n.ID)
		}
		return true
	}); err != nil {
		t.Fatalf("Nodes: %v", err)
	}
	slices.Sort(ans.indexed)
	slices.Sort(ans.scanned)
	return ans
}

// TestKNeighborhoodReadsIDPairs holds the kv-backed engines' Table VII
// walk to the store's id pairs: a 2-neighborhood on a 500-node R-MAT reads
// the start's record and no other, no edge record, and one adjacency scan
// per stored direction of each node it expands (the start and its
// 1-neighborhood), as many as a walk over Neighbors records makes.
func TestKNeighborhoodReadsIDPairs(t *testing.T) {
	for _, name := range []string{"vertexkv", "filamentdb", "gstore"} {
		t.Run(name, func(t *testing.T) {
			reg := obs.NewRegistry()
			opts := engine.Options{Metrics: reg}
			if capability.NeedsDir(name) {
				opts.Dir = t.TempDir()
			}
			e, err := engine.Open(name, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			ids, err := gen.Generate(gen.Spec{Kind: gen.RMAT, Nodes: 500, EdgesPerNode: 4, Seed: 3}, e.(engine.Loader))
			if err != nil {
				t.Fatal(err)
			}
			es := e.Essentials(context.Background())
			near, err := es.KNeighborhood(ids[0], 1)
			if err != nil {
				t.Fatal(err)
			}
			nodes, edges, scans := reg.Counter("kvgraph.node_reads"), reg.Counter("kvgraph.edge_reads"), reg.Counter("kvgraph.adj_scans")
			n0, e0, s0 := nodes.Value(), edges.Value(), scans.Value()
			far, err := es.KNeighborhood(ids[0], 2)
			if err != nil {
				t.Fatal(err)
			}
			if len(far) <= len(near) {
				t.Fatalf("2-neighborhood has %d nodes, 1-neighborhood %d: the walk must reach depth 2", len(far), len(near))
			}
			if n, e := nodes.Value()-n0, edges.Value()-e0; n > 1 || e != 0 {
				t.Errorf("KNeighborhood(k=2) read %d node and %d edge records, want at most 1 and 0", n, e)
			}
			if got, want := scans.Value()-s0, uint64(2*(1+len(near))); got != want {
				t.Errorf("KNeighborhood(k=2) made %d adjacency scans, want %d", got, want)
			}
		})
	}
}

// TestPersistence is the reopen probe behind Table I's storage cells: every
// engine that declares External memory or Backend storage loads three
// nodes and an edge, and a mutable engine also updates a declared property
// and removes a node. After Flush, Close and a reopen, the label count,
// the adjacency, the property sum and (for a plan.Source) the label lookup
// must answer as they did before the close, and a label lookup the index
// handles must return the rows a scan returns.
func TestPersistence(t *testing.T) {
	for _, name := range storageEngines(t) {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			e, err := engine.Open(name, engine.Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			l := e.(engine.Loader)
			var ids [3]model.NodeID
			for i, nm := range []string{"a", "b", "c"} {
				if ids[i], err = l.LoadNode("P", model.Props("name", nm, "w", i+1)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := l.LoadEdge("E", ids[0], ids[1], nil); err != nil {
				t.Fatal(err)
			}
			wantCount := "3"
			if g, ok := e.(model.MutableGraph); ok {
				if err := g.SetNodeProp(ids[0], "w", model.Int(10)); err != nil {
					t.Fatal(err)
				}
				if err := g.RemoveNode(ids[2]); err != nil {
					t.Fatal(err)
				}
				wantCount = "2"
			}
			before := readAnswers(t, e, ids[0], ids[1])
			if before.count != wantCount || !before.adjacent {
				t.Fatalf("before close: count %s adjacent %v, want %s true", before.count, before.adjacent, wantCount)
			}
			if p, ok := e.(engine.Persistent); ok {
				if err := p.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}

			e2, err := engine.Open(name, engine.Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer e2.Close()
			after := readAnswers(t, e2, ids[0], ids[1])
			if after.count != before.count {
				t.Errorf("count after reopen = %s, want %s", after.count, before.count)
			}
			if after.sum != before.sum {
				t.Errorf("sum of w after reopen = %s, want %s", after.sum, before.sum)
			}
			if !after.adjacent {
				t.Error("a and b are no longer adjacent after reopen")
			}
			if after.handled != before.handled {
				t.Errorf("label lookup handled = %v after reopen, %v before", after.handled, before.handled)
			}
			if after.handled && !slices.Equal(after.indexed, after.scanned) {
				t.Errorf("label lookup after reopen = %v, scan = %v", after.indexed, after.scanned)
			}
			if !slices.Equal(after.scanned, before.scanned) {
				t.Errorf("label scan after reopen = %v, before = %v", after.scanned, before.scanned)
			}
		})
	}
}

// hyperState renders what the hypergraph reopen probe compares: Order,
// Size, every link's label, members and props, and the links incident to
// each atom.
func hyperState(t *testing.T, h engine.HyperAPI, atoms []model.NodeID) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "order %d size %d\n", h.Order(), h.Size())
	var links []model.HyperEdge
	if err := h.HyperEdges(func(e model.HyperEdge) bool {
		links = append(links, e)
		return true
	}); err != nil {
		t.Fatalf("HyperEdges: %v", err)
	}
	slices.SortFunc(links, func(x, y model.HyperEdge) int { return cmp.Compare(x.ID, y.ID) })
	for _, e := range links {
		fmt.Fprintf(&b, "link %d %q %v %s\n", e.ID, e.Label, e.Members, e.Props)
	}
	for _, a := range atoms {
		var inc []model.EdgeID
		if err := h.Incident(a, func(e model.HyperEdge) bool {
			inc = append(inc, e.ID)
			return true
		}); err != nil {
			t.Fatalf("Incident(%d): %v", a, err)
		}
		fmt.Fprintf(&b, "atom %d in %v\n", a, inc)
	}
	return b.String()
}

// TestHyperPersistence is the reopen probe for the hypergraph engines:
// every engine that declares a storage cell and Hypergraphs (Table III)
// adds three atoms, a 3-ary and a 2-ary link, and removes the 3-ary link.
// After Flush, Close and a reopen, Order, Size, each link and each atom's
// incident links must read as they did before the close.
func TestHyperPersistence(t *testing.T) {
	ran := 0
	for _, name := range storageEngines(t) {
		dir := t.TempDir()
		e, err := engine.Open(name, engine.Options{Dir: dir})
		if err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
		if e.Features().Hypergraphs == engine.No {
			if err := e.Close(); err != nil {
				t.Fatalf("close %s: %v", name, err)
			}
			continue
		}
		ran++
		t.Run(name, func(t *testing.T) {
			h, ok := e.(engine.HyperAPI)
			if !ok {
				e.Close()
				t.Fatalf("declares Hypergraphs but does not implement engine.HyperAPI")
			}
			l := e.(engine.Loader)
			var atoms []model.NodeID
			for _, nm := range []string{"a", "b", "c"} {
				id, err := l.LoadNode("P", model.Props("name", nm))
				if err != nil {
					t.Fatal(err)
				}
				atoms = append(atoms, id)
			}
			tri, err := h.AddHyperEdge("tri", atoms, model.Props("k", 3))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.AddHyperEdge("pair", []model.NodeID{atoms[2], atoms[0]}, model.Props("k", 2)); err != nil {
				t.Fatal(err)
			}
			if err := h.RemoveHyperEdge(tri); err != nil {
				t.Fatal(err)
			}
			if h.Order() != 3 || h.Size() != 1 {
				t.Fatalf("before close: order %d size %d, want 3 1", h.Order(), h.Size())
			}
			before := hyperState(t, h, atoms)
			if err := e.(engine.Persistent).Flush(); err != nil {
				t.Fatal(err)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			e2, err := engine.Open(name, engine.Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer e2.Close()
			if after := hyperState(t, e2.(engine.HyperAPI), atoms); after != before {
				t.Errorf("after reopen:\n%s\nbefore close:\n%s", after, before)
			}
		})
	}
	if ran == 0 {
		t.Fatal("no storage engine declares Hypergraphs: the probe ran on nothing")
	}
}
