// Package suite runs the cross-engine conformance tests: every registered
// engine is seeded through the common Loader surface and its declared
// capabilities are exercised.
package suite

import (
	"context"
	"errors"
	"testing"

	"gdbm/internal/algo"
	"gdbm/internal/engine"
	"gdbm/internal/engine/capability"
	"gdbm/internal/model"

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
		// Table VII: no surveyed system composes regular simple paths or
		// pattern matching.
		check("RegularSimplePaths", es.RegularSimplePaths != nil, false)
		check("PatternMatching", es.PatternMatching != nil, false)
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

func TestPersistence(t *testing.T) {
	// Engines claiming external/backend storage must survive reopening.
	for _, name := range []string{"neograph", "bitmapdb", "vertexkv", "filamentdb", "gstore", "triplestore"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			e, err := engine.Open(name, engine.Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			l := e.(engine.Loader)
			if _, err := l.LoadNode("P", model.Props("name", "keep")); err != nil {
				t.Fatal(err)
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
			es := e2.Essentials(context.Background())
			v, err := es.Summarization(algo.AggCount, "P", "")
			if name == "triplestore" {
				// Triple engines store the label as a statement, not a
				// node label; count terms instead.
				v, err = es.Summarization(algo.AggCount, "", "")
				if err != nil {
					t.Fatal(err)
				}
				if n, _ := v.AsInt(); n < 2 { // term "keep" + type term "P"
					t.Errorf("terms after reopen = %v", v)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if n, _ := v.AsInt(); n != 1 {
				t.Errorf("count after reopen = %v", v)
			}
		})
	}
}
