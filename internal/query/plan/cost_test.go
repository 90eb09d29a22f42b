package plan

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"gdbm/internal/memgraph"
	"gdbm/internal/model"
	"gdbm/internal/query"
	"gdbm/internal/query/stats"
)

// web builds a graph with cyclic structure for the reordering tests:
// a Person triangle (ada-bob-cam, all "knows", with a parallel ada->bob),
// a diamond (ada->bob->dan, ada->cam->dan), a self-loop on dan, and a
// disconnected City. Returns the source and its statistics.
func web(t *testing.T) (Source, *stats.Stats) {
	t.Helper()
	g := memgraph.New()
	ids := map[string]model.NodeID{}
	for _, name := range []string{"ada", "bob", "cam", "dan"} {
		id, err := g.AddNode("Person", model.Props("name", name))
		if err != nil {
			t.Fatal(err)
		}
		ids[name] = id
	}
	cid, err := g.AddNode("City", model.Props("name", "zurich"))
	if err != nil {
		t.Fatal(err)
	}
	ids["zurich"] = cid
	addEdge := func(label, from, to string) {
		if _, err := g.AddEdge(label, ids[from], ids[to], nil); err != nil {
			t.Fatal(err)
		}
	}
	// Triangle with one parallel edge.
	addEdge("knows", "ada", "bob")
	addEdge("knows", "ada", "bob") // parallel
	addEdge("knows", "bob", "cam")
	addEdge("knows", "ada", "cam")
	// Diamond ada->{bob,cam}->dan.
	addEdge("follows", "ada", "bob")
	addEdge("follows", "ada", "cam")
	addEdge("follows", "bob", "dan")
	addEdge("follows", "cam", "dan")
	// Self-loop.
	addEdge("knows", "dan", "dan")
	st, err := g.PlanStats()
	if err != nil {
		t.Fatal(err)
	}
	return UnindexedSource{g}, st
}

// canon renders a result as order-insensitive canonical text.
func canon(t *testing.T, res *Result) string {
	t.Helper()
	lines := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		var kb []byte
		for _, v := range row {
			kb = v.EncodeKey(kb)
			kb = append(kb, '|')
		}
		lines[i] = string(kb)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// compileAll compiles spec under the naive planner, the cost-based planner,
// and the cost-based planner with WCO, on independent spec copies.
func compileAll(t *testing.T, spec *MatchSpec, st *stats.Stats) (naive, costed, wco Op) {
	t.Helper()
	copySpec := func() *MatchSpec {
		s := *spec
		s.Nodes = append([]NodePat(nil), spec.Nodes...)
		s.Edges = append([]EdgePat(nil), spec.Edges...)
		return &s
	}
	var err error
	naive, err = Compile(copySpec())
	if err != nil {
		t.Fatalf("naive: %v", err)
	}
	costed, _, err = Planner{Stats: st}.Compile(copySpec())
	if err != nil {
		t.Fatalf("cost: %v", err)
	}
	wco, _, err = Planner{Stats: st, WCO: true}.Compile(copySpec())
	if err != nil {
		t.Fatalf("wco: %v", err)
	}
	return naive, costed, wco
}

func nameItem(v string) Item {
	return Item{Name: v, Expr: query.Var{Name: v, Prop: "name"}}
}

// TestPlannersAgree is the in-package differential table: every spec must
// render identically under all three planners, and the WCO planner must
// actually choose the intersection operator on the cyclic cores.
func TestPlannersAgree(t *testing.T) {
	src, st := web(t)
	cases := []struct {
		name      string
		spec      MatchSpec
		wantRows  int  // -1 = don't check, only cross-planner identity
		wantWCO   bool // WCO plan must contain an Intersect operator
		wantEmpty bool
	}{
		{
			name: "triangle",
			spec: MatchSpec{
				Nodes: []NodePat{{Var: "a"}, {Var: "b"}, {Var: "c"}},
				Edges: []EdgePat{
					{Label: "knows", From: 0, To: 1, Dir: model.Out},
					{Label: "knows", From: 1, To: 2, Dir: model.Out},
					{Label: "knows", From: 0, To: 2, Dir: model.Out},
				},
				Return: []Item{nameItem("a"), nameItem("b"), nameItem("c")},
				Limit:  -1,
			},
			// ada->bob (x2 parallel), bob->cam, ada->cam: 2 triangles; the
			// self-loop dan-dan-dan closes a degenerate one.
			wantRows: 3, wantWCO: true,
		},
		{
			name: "diamond",
			spec: MatchSpec{
				Nodes: []NodePat{{Var: "a"}, {Var: "b"}, {Var: "c"}, {Var: "d"}},
				Edges: []EdgePat{
					{Label: "follows", From: 0, To: 1, Dir: model.Out},
					{Label: "follows", From: 0, To: 2, Dir: model.Out},
					{Label: "follows", From: 1, To: 3, Dir: model.Out},
					{Label: "follows", From: 2, To: 3, Dir: model.Out},
				},
				Return: []Item{nameItem("a"), nameItem("b"), nameItem("c"), nameItem("d")},
				Limit:  -1,
			},
			// b and c range over {bob,cam} independently: 4 rows.
			wantRows: 4, wantWCO: true,
		},
		{
			name: "triangle-both-direction",
			spec: MatchSpec{
				Nodes: []NodePat{{Var: "a"}, {Var: "b"}, {Var: "c"}},
				Edges: []EdgePat{
					{Label: "knows", From: 0, To: 1, Dir: model.Both},
					{Label: "knows", From: 1, To: 2, Dir: model.Both},
					{Label: "knows", From: 0, To: 2, Dir: model.Both},
				},
				Return: []Item{nameItem("a"), nameItem("b"), nameItem("c")},
				Limit:  -1,
			},
			wantRows: -1, wantWCO: true,
		},
		{
			name: "disconnected-cross-scan",
			spec: MatchSpec{
				Nodes: []NodePat{
					{Var: "p", Label: "Person"},
					{Var: "c", Label: "City"},
				},
				Return: []Item{nameItem("p"), nameItem("c")},
				Limit:  -1,
			},
			wantRows: 4, // 4 persons x 1 city
		},
		{
			name: "varlength-with-cyclic-core",
			spec: MatchSpec{
				Nodes: []NodePat{{Var: "a"}, {Var: "b"}, {Var: "c"}, {Var: "d"}},
				Edges: []EdgePat{
					{Label: "knows", From: 0, To: 1, Dir: model.Out},
					{Label: "knows", From: 1, To: 2, Dir: model.Out},
					{Label: "knows", From: 0, To: 2, Dir: model.Out},
					{Label: "follows", From: 2, To: 3, Dir: model.Out, VarLength: true, Min: 1, Max: 2},
				},
				Return: []Item{nameItem("a"), nameItem("b"), nameItem("c"), nameItem("d")},
				Limit:  -1,
			},
			wantRows: -1, wantWCO: true,
		},
		{
			name: "zero-cardinality-label",
			spec: MatchSpec{
				Nodes: []NodePat{
					{Var: "g", Label: "Ghost"},
					{Var: "b"},
				},
				Edges:  []EdgePat{{From: 0, To: 1, Dir: model.Out}},
				Return: []Item{nameItem("g"), nameItem("b")},
				Limit:  -1,
			},
			wantRows: 0, wantEmpty: true,
		},
		{
			name: "distinct-through-reordered-tree",
			spec: MatchSpec{
				Nodes: []NodePat{{Var: "a"}, {Var: "b"}},
				Edges: []EdgePat{
					{Label: "knows", From: 0, To: 1, Dir: model.Out},
				},
				Return:   []Item{nameItem("b")},
				Distinct: true,
				Limit:    -1,
			},
			wantRows: 3, // bob, cam, dan — parallel edges deduped
		},
		{
			name: "limit-offset-ordered",
			spec: MatchSpec{
				Nodes: []NodePat{{Var: "a"}, {Var: "b"}},
				Edges: []EdgePat{
					{Label: "follows", From: 0, To: 1, Dir: model.Out},
				},
				Return: []Item{nameItem("a"), nameItem("b")},
				OrderBy: []OrderKey{
					{Expr: query.Var{Name: "a"}},
					{Expr: query.Var{Name: "b"}},
				},
				Limit:  2,
				Offset: 1,
			},
			// OrderBy covers every returned column, so Limit/Offset slice
			// the same rows whatever the join order produced.
			wantRows: 2,
		},
		{
			name: "bound-bound-check-multiplicity",
			spec: MatchSpec{
				Nodes: []NodePat{{Var: "a"}, {Var: "b"}},
				Edges: []EdgePat{
					{Label: "knows", From: 0, To: 1, Dir: model.Out},
					{Label: "follows", From: 0, To: 1, Dir: model.Out},
				},
				Return: []Item{nameItem("a"), nameItem("b")},
				Limit:  -1,
			},
			// ada-[knows x2]->bob and ada-[follows]->bob: 2 rows; plus
			// ada-knows->cam & ada-follows->cam: 1 row.
			wantRows: 3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cols := make([]string, len(tc.spec.Return))
			for i, it := range tc.spec.Return {
				cols[i] = it.Name
			}
			naive, costed, wco := compileAll(t, &tc.spec, st)
			if tc.wantWCO && !strings.Contains(wco.String(), "Intersect") {
				t.Errorf("WCO plan has no Intersect: %s", wco)
			}
			var rendered []string
			for i, op := range []Op{naive, costed, wco} {
				res, err := Collect(op, src, cols)
				if err != nil {
					t.Fatalf("plan %d: %v", i, err)
				}
				if tc.wantRows >= 0 && len(res.Rows) != tc.wantRows {
					t.Errorf("plan %d: %d rows, want %d\nplan: %s", i, len(res.Rows), tc.wantRows, op)
				}
				if len(tc.spec.OrderBy) > 0 {
					// Ordered results compare positionally.
					var lines []string
					for _, row := range res.Rows {
						var kb []byte
						for _, v := range row {
							kb = v.EncodeKey(kb)
						}
						lines = append(lines, string(kb))
					}
					rendered = append(rendered, strings.Join(lines, "\n"))
				} else {
					rendered = append(rendered, canon(t, res))
				}
			}
			if rendered[0] != rendered[1] || rendered[0] != rendered[2] {
				t.Errorf("planners disagree:\nnaive:\n%s\ncost:\n%s\nwco:\n%s", rendered[0], rendered[1], rendered[2])
			}
		})
	}
}

// TestPlannersAgreeOnEmptyGraph runs the differential on a graph with no
// nodes at all: plans must compile and render empty, not error.
func TestPlannersAgreeOnEmptyGraph(t *testing.T) {
	g := memgraph.New()
	st, err := g.PlanStats()
	if err != nil {
		t.Fatal(err)
	}
	src := UnindexedSource{g}
	spec := MatchSpec{
		Nodes: []NodePat{{Var: "a"}, {Var: "b"}, {Var: "c"}},
		Edges: []EdgePat{
			{From: 0, To: 1, Dir: model.Out},
			{From: 1, To: 2, Dir: model.Out},
			{From: 0, To: 2, Dir: model.Out},
		},
		Return: []Item{nameItem("a")},
		Limit:  -1,
	}
	naive, costed, wco := compileAll(t, &spec, st)
	for i, op := range []Op{naive, costed, wco} {
		res, err := Collect(op, src, []string{"a"})
		if err != nil {
			t.Fatalf("plan %d: %v", i, err)
		}
		if len(res.Rows) != 0 {
			t.Errorf("plan %d: %d rows on empty graph", i, len(res.Rows))
		}
	}
}

// TestPlannerErrorParity: invalid specs must fail on both planners with the
// same error, never panic, never pass on exactly one side.
func TestPlannerErrorParity(t *testing.T) {
	cases := []struct {
		name string
		spec MatchSpec
	}{
		{"empty", MatchSpec{Limit: -1}},
		{"edge-from-out-of-range", MatchSpec{
			Nodes: []NodePat{{Var: "a"}},
			Edges: []EdgePat{{From: 3, To: 0, Dir: model.Out}},
			Limit: -1,
		}},
		{"edge-to-negative", MatchSpec{
			Nodes: []NodePat{{Var: "a"}},
			Edges: []EdgePat{{From: 0, To: -1, Dir: model.Out}},
			Limit: -1,
		}},
		{"duplicate-node-var", MatchSpec{
			Nodes: []NodePat{{Var: "a"}, {Var: "a"}},
			Limit: -1,
		}},
		{"edge-var-collides-node-var", MatchSpec{
			Nodes: []NodePat{{Var: "a"}, {Var: "b"}},
			Edges: []EdgePat{{Var: "a", From: 0, To: 1, Dir: model.Out}},
			Limit: -1,
		}},
		{"varlength-negative-min", MatchSpec{
			Nodes: []NodePat{{Var: "a"}, {Var: "b"}},
			Edges: []EdgePat{{From: 0, To: 1, Dir: model.Out, VarLength: true, Min: -1, Max: 2}},
			Limit: -1,
		}},
		{"varlength-binds-var", MatchSpec{
			Nodes: []NodePat{{Var: "a"}, {Var: "b"}},
			Edges: []EdgePat{{Var: "e", From: 0, To: 1, Dir: model.Out, VarLength: true, Min: 1, Max: 2}},
			Limit: -1,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s1 := tc.spec
			s1.Nodes = append([]NodePat(nil), tc.spec.Nodes...)
			s1.Edges = append([]EdgePat(nil), tc.spec.Edges...)
			_, err1 := Compile(&s1)
			s2 := tc.spec
			s2.Nodes = append([]NodePat(nil), tc.spec.Nodes...)
			s2.Edges = append([]EdgePat(nil), tc.spec.Edges...)
			_, _, err2 := Planner{WCO: true}.Compile(&s2)
			if err1 == nil || err2 == nil {
				t.Fatalf("want errors from both planners, got %v / %v", err1, err2)
			}
			if err1.Error() != err2.Error() {
				t.Errorf("error shapes differ: %q vs %q", err1, err2)
			}
		})
	}
}

// TestIntersectExpandMultiplicity checks the run-length semantics directly:
// a common neighbor reached through m and n parallel edges must yield m*n
// rows, exactly like the stacked-Expand equivalent.
func TestIntersectExpandMultiplicity(t *testing.T) {
	g := memgraph.New()
	a, _ := g.AddNode("X", nil)
	b, _ := g.AddNode("X", nil)
	c, _ := g.AddNode("X", nil)
	// a->c twice, b->c three times.
	for i := 0; i < 2; i++ {
		if _, err := g.AddEdge("e", a, c, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := g.AddEdge("e", b, c, nil); err != nil {
			t.Fatal(err)
		}
	}
	src := UnindexedSource{g}
	// Bind a and b as a cross-scan of all node pairs, then intersect.
	op := &IntersectExpand{
		Child: &NodeScan{Child: &NodeScan{Var: "a"}, Var: "b"},
		Inputs: []IntersectInput{
			{FromVar: "a", Label: "e", Dir: model.Out},
			{FromVar: "b", Label: "e", Dir: model.Out},
		},
		ToVar: "c",
	}
	rows := runAll(t, op, src)
	// For (a,b)=(a,b): 2*3=6; (a,a): 2*2=4; (b,b): 3*3=9; (b,a): 3*2=6.
	// c has no out-edges, so pairs involving c contribute 0.
	if len(rows) != 25 {
		t.Fatalf("intersect rows = %d, want 25", len(rows))
	}
	for _, r := range rows {
		if r["c"].Node.ID != c {
			t.Fatalf("bound wrong node %v", r["c"].Node.ID)
		}
	}
}

// TestIntersectExpandMatchesExpandChain is the operator-level differential:
// on the web fixture, intersecting must equal expanding then checking.
func TestIntersectExpandMatchesExpandChain(t *testing.T) {
	src, _ := web(t)
	base := &NodeScan{Child: &NodeScan{Var: "a"}, Var: "b"}
	chain := &Expand{
		Child: &Expand{
			Child:   base,
			FromVar: "a", ToVar: "c", Label: "knows", Dir: model.Out,
		},
		FromVar: "b", ToVar: "c", Label: "knows", Dir: model.Out,
	}
	isect := &IntersectExpand{
		Child: base,
		Inputs: []IntersectInput{
			{FromVar: "a", Label: "knows", Dir: model.Out},
			{FromVar: "b", Label: "knows", Dir: model.Out},
		},
		ToVar: "c",
	}
	render := func(op Op) string {
		rows := runAll(t, op, src)
		lines := make([]string, len(rows))
		for i, r := range rows {
			lines[i] = fmt.Sprintf("%d|%d|%d", r["a"].Node.ID, r["b"].Node.ID, r["c"].Node.ID)
		}
		sort.Strings(lines)
		return strings.Join(lines, "\n")
	}
	if a, b := render(chain), render(isect); a != b {
		t.Errorf("chain and intersect disagree:\nchain:\n%s\nintersect:\n%s", a, b)
	}
}

func TestIntersectExpandTooFewInputs(t *testing.T) {
	src, _ := web(t)
	op := &IntersectExpand{
		Child:  &NodeScan{Var: "a"},
		Inputs: []IntersectInput{{FromVar: "a", Label: "knows", Dir: model.Out}},
		ToVar:  "c",
	}
	if err := op.Run(src, func(query.Row) error { return nil }); err == nil {
		t.Error("single-input intersect should error")
	}
}

// TestCompileForDispatch: sources exposing statistics get the cost-based
// planner; bare sources fall back to naive — and both answer identically.
func TestCompileForDispatch(t *testing.T) {
	g := memgraph.New()
	id1, _ := g.AddNode("A", model.Props("name", "n1"))
	id2, _ := g.AddNode("B", model.Props("name", "n2"))
	if _, err := g.AddEdge("r", id1, id2, nil); err != nil {
		t.Fatal(err)
	}
	spec := func() *MatchSpec {
		return &MatchSpec{
			Nodes:  []NodePat{{Var: "a", Label: "A"}, {Var: "b", Label: "B"}},
			Edges:  []EdgePat{{Label: "r", From: 0, To: 1, Dir: model.Out}},
			Return: []Item{nameItem("a"), nameItem("b")},
			Limit:  -1,
		}
	}
	// statsSource exposes PlanStats; UnindexedSource hides it.
	withStats := statsSource{UnindexedSource{g}, g}
	op1, err := CompileFor(spec(), withStats)
	if err != nil {
		t.Fatal(err)
	}
	op2, err := CompileFor(spec(), UnindexedSource{g})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Collect(op1, withStats, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Collect(op2, UnindexedSource{g}, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if canon(t, r1) != canon(t, r2) {
		t.Errorf("dispatch paths disagree: %v vs %v", r1.Rows, r2.Rows)
	}
	if len(r1.Rows) != 1 {
		t.Errorf("rows = %d", len(r1.Rows))
	}
}

// statsSource pairs a plain Source with a stats provider, modelling an
// engine core.
type statsSource struct {
	Source
	p stats.Provider
}

func (s statsSource) PlanStats() (*stats.Stats, error) { return s.p.PlanStats() }
