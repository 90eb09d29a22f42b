package pastql

import (
	"testing"

	"gdbm/internal/algo"
	"gdbm/internal/engine"
	"gdbm/internal/memgraph"
	"gdbm/internal/model"
	"gdbm/internal/query/plan"
)

func formalGraph(t *testing.T) (*memgraph.Graph, []model.NodeID) {
	t.Helper()
	g := memgraph.New()
	ids := make([]model.NodeID, 5)
	for i := range ids {
		ids[i], _ = g.AddNode("V", model.Props("i", i))
	}
	g.AddEdge("a", ids[0], ids[1], nil)
	g.AddEdge("a", ids[1], ids[2], nil)
	g.AddEdge("b", ids[2], ids[3], nil)
	g.AddEdge("a", ids[0], ids[4], nil)
	g.AddEdge("b", ids[4], ids[3], nil)
	return g, ids
}

func TestSixLanguagesProfiled(t *testing.T) {
	langs := Languages()
	if len(langs) != 6 {
		t.Fatalf("languages = %d", len(langs))
	}
	names := map[string]bool{}
	for _, l := range langs {
		names[l.Name] = true
		if l.Year < 1985 || l.Year > 2000 {
			t.Errorf("%s year %d outside the pre-2002 era", l.Name, l.Year)
		}
	}
	for _, want := range []string{"G", "G+", "GraphLog", "Gram", "GraphDB", "Lorel"} {
		if !names[want] {
			t.Errorf("missing language %s", want)
		}
	}
}

// Every marked cell must be backed by a runnable operation and vice versa.
func TestMarksMatchOps(t *testing.T) {
	for _, l := range Languages() {
		for _, f := range Columns() {
			mark := l.Marks[f]
			op := l.OpFor(f)
			if mark != engine.No && op == nil {
				t.Errorf("%s: %s marked %q but has no operation", l.Name, f, mark.Mark())
			}
			if mark == engine.No && op != nil {
				t.Errorf("%s: %s has an operation but no mark", l.Name, f)
			}
		}
	}
}

// Execute every supported operation of every language on the formal graph.
func TestAllOpsExecute(t *testing.T) {
	for _, l := range Languages() {
		t.Run(l.Name, func(t *testing.T) {
			g, ids := formalGraph(t)
			if l.Ops.Adjacency != nil {
				ok, err := l.Ops.Adjacency(g, ids[0], ids[1])
				if err != nil || !ok {
					t.Errorf("adjacency: %v %v", ok, err)
				}
			}
			if l.Ops.KNeighborhood != nil {
				nb, err := l.Ops.KNeighborhood(g, ids[0], 1)
				if err != nil || len(nb) != 2 {
					t.Errorf("khood: %v %v", nb, err)
				}
			}
			if l.Ops.FixedPaths != nil {
				ps, err := l.Ops.FixedPaths(g, ids[0], ids[3], 2)
				if err != nil || len(ps) != 1 { // 0-4-3
					t.Errorf("fixed: %v %v", ps, err)
				}
			}
			if l.Ops.RegularPaths != nil {
				ns, err := l.Ops.RegularPaths(g, ids[0], "a/a/b|a/b")
				if err != nil {
					t.Fatalf("regular: %v", err)
				}
				found := false
				for _, n := range ns {
					if n == ids[3] {
						found = true
					}
				}
				if !found {
					t.Errorf("regular paths missed node 3: %v", ns)
				}
			}
			if l.Ops.ShortestPath != nil {
				p, err := l.Ops.ShortestPath(g, ids[0], ids[3])
				if err != nil || p.Len() != 2 {
					t.Errorf("shortest: %v %v", p, err)
				}
			}
			if l.Ops.Distance != nil {
				d, err := l.Ops.Distance(g, ids[0], ids[3])
				if err != nil || d != 2 {
					t.Errorf("distance: %v %v", d, err)
				}
			}
			if l.Ops.Pattern != nil {
				pat, _ := plan.NewPattern(
					[]plan.PatternNode{{Var: "x"}, {Var: "y"}},
					[]plan.PatternEdge{{From: 0, To: 1, Label: "b"}},
				)
				ms, err := l.Ops.Pattern(g, pat)
				if err != nil || len(ms) != 2 {
					t.Errorf("pattern: %v %v", ms, err)
				}
			}
			if l.Ops.Summarize != nil {
				v, err := l.Ops.Summarize(g, algo.AggCount, "V", "")
				if err != nil {
					t.Fatal(err)
				}
				if n, _ := v.AsInt(); n != 5 {
					t.Errorf("summarize count = %v", v)
				}
			}
		})
	}
}

// The G family uses simple-path semantics; Lorel uses reachability
// semantics. On a cyclic graph they differ — verify the distinction the
// survey's complexity discussion rests on.
func TestSemanticsDifferOnCycles(t *testing.T) {
	g := memgraph.New()
	a, _ := g.AddNode("V", nil)
	b, _ := g.AddNode("V", nil)
	g.AddEdge("x", a, b, nil)
	g.AddEdge("x", b, a, nil)

	var gLang, lorel *Language
	for _, l := range Languages() {
		switch l.Name {
		case "G":
			gLang = l
		case "Lorel":
			lorel = l
		}
	}
	// x/x/x from a: simple paths cannot revisit, so G finds nothing at
	// length 3; reachability semantics finds b.
	gRes, err := gLang.Ops.RegularPaths(g, a, "x/x/x")
	if err != nil {
		t.Fatal(err)
	}
	lRes, err := lorel.Ops.RegularPaths(g, a, "x/x/x")
	if err != nil {
		t.Fatal(err)
	}
	if len(gRes) != 0 {
		t.Errorf("G (simple paths) found %v", gRes)
	}
	if len(lRes) != 1 || lRes[0] != b {
		t.Errorf("Lorel (reachability) found %v", lRes)
	}
}

func TestColumnsOrder(t *testing.T) {
	cols := Columns()
	if len(cols) != 8 || cols[0] != FAdjacency || cols[7] != FSummarize {
		t.Errorf("columns = %v", cols)
	}
}

// On an acyclic 16-node a-path every walk is a simple path, so a* answers
// all 16 nodes under both semantics: the simple-path profiles enumerate
// without a depth cut.
func TestSimplePathsHaveNoDepthCut(t *testing.T) {
	g := memgraph.New()
	ids := make([]model.NodeID, 16)
	for i := range ids {
		ids[i], _ = g.AddNode("V", nil)
		if i > 0 {
			if _, err := g.AddEdge("a", ids[i-1], ids[i], nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, l := range Languages() {
		if l.Ops.RegularPaths == nil {
			continue
		}
		got, err := l.Ops.RegularPaths(g, ids[0], "a*")
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		if len(got) != len(ids) {
			t.Errorf("%s: a* answers %d of %d nodes", l.Name, len(got), len(ids))
		}
	}
}
