package plan

import (
	"testing"

	"gdbm/internal/memgraph"
	"gdbm/internal/model"
	"gdbm/internal/query"
)

// people builds: ada(36)-knows->bob(40), bob-knows->cam(25),
// ada-livesIn->zurich, cam-livesIn->zurich.
func people(t *testing.T) (Source, map[string]model.NodeID) {
	t.Helper()
	g := memgraph.New()
	ids := map[string]model.NodeID{}
	add := func(name string, label string, props model.Properties) {
		id, err := g.AddNode(label, props)
		if err != nil {
			t.Fatal(err)
		}
		ids[name] = id
	}
	add("ada", "Person", model.Props("name", "ada", "age", 36))
	add("bob", "Person", model.Props("name", "bob", "age", 40))
	add("cam", "Person", model.Props("name", "cam", "age", 25))
	add("zurich", "City", model.Props("name", "zurich"))
	g.AddEdge("knows", ids["ada"], ids["bob"], model.Props("since", 2019))
	g.AddEdge("knows", ids["bob"], ids["cam"], nil)
	g.AddEdge("livesIn", ids["ada"], ids["zurich"], nil)
	g.AddEdge("livesIn", ids["cam"], ids["zurich"], nil)
	return UnindexedSource{g}, ids
}

// runAll binds a hand-built tree the way the planners bind a compiled one,
// runs it, and returns every row keyed by variable name. The caller may read
// any binding, so every slot counts as read: a source with id adjacency
// then loads the records, as it does for a query that reads them.
func runAll(t *testing.T, op Op, src Source) []map[string]query.Entry {
	t.Helper()
	sc := bindTree(op)
	for i := range sc.Read {
		sc.Read[i] = true
	}
	var rows []map[string]query.Entry
	if err := op.Run(src, func(r query.Row) error {
		row := map[string]query.Entry{}
		for slot, e := range r {
			row[sc.Names[slot]] = e
		}
		rows = append(rows, row)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestNodeScanLabelAndProps(t *testing.T) {
	src, _ := people(t)
	rows := runAll(t, &NodeScan{Var: "p", Label: "Person"}, src)
	if len(rows) != 3 {
		t.Errorf("Person scan = %d rows", len(rows))
	}
	rows = runAll(t, &NodeScan{Var: "p", Label: "Person", PropEq: model.Props("name", "bob")}, src)
	if len(rows) != 1 {
		t.Errorf("prop scan = %d rows", len(rows))
	}
	rows = runAll(t, &NodeScan{Var: "p"}, src)
	if len(rows) != 4 {
		t.Errorf("full scan = %d rows", len(rows))
	}
}

func TestExpandDirections(t *testing.T) {
	src, ids := people(t)
	base := &NodeScan{Var: "a", Label: "Person", PropEq: model.Props("name", "ada")}
	out := runAll(t, &Expand{Child: base, FromVar: "a", ToVar: "b", Label: "knows", Dir: model.Out}, src)
	if len(out) != 1 || out[0]["b"].Node.ID != ids["bob"] {
		t.Errorf("out expand = %v", out)
	}
	in := runAll(t, &Expand{Child: &NodeScan{Var: "a", PropEq: model.Props("name", "bob")}, FromVar: "a", ToVar: "b", Label: "knows", Dir: model.In}, src)
	if len(in) != 1 || in[0]["b"].Node.ID != ids["ada"] {
		t.Errorf("in expand = %v", in)
	}
	both := runAll(t, &Expand{Child: &NodeScan{Var: "a", PropEq: model.Props("name", "bob")}, FromVar: "a", ToVar: "b", Label: "knows", Dir: model.Both}, src)
	if len(both) != 2 {
		t.Errorf("both expand = %d", len(both))
	}
	// Edge variable binding.
	ev := runAll(t, &Expand{Child: base, FromVar: "a", EdgeVar: "e", ToVar: "b", Label: "knows", Dir: model.Out}, src)
	if ev[0]["e"].Edge.Label != "knows" {
		t.Error("edge var not bound")
	}
}

func TestExpandJoinCheck(t *testing.T) {
	src, _ := people(t)
	// ada knows b AND b livesIn city AND ada livesIn same city? No: bob
	// doesn't live anywhere. Check bound-bound expand as a join.
	op := &Expand{
		Child: &Expand{
			Child: &Expand{
				Child:   &NodeScan{Var: "a", PropEq: model.Props("name", "ada")},
				FromVar: "a", ToVar: "c", Label: "livesIn", Dir: model.Out,
			},
			FromVar: "c", ToVar: "b", Label: "livesIn", Dir: model.In,
		},
		FromVar: "a", ToVar: "b", Label: "knows", Dir: model.Out,
	}
	rows := runAll(t, op, src)
	// a=ada, c=zurich, b in {ada, cam}; ada knows neither of those.
	if len(rows) != 0 {
		t.Errorf("join rows = %d", len(rows))
	}
}

func TestFilterProjectLimit(t *testing.T) {
	src, _ := people(t)
	cond, _ := query.ParseExprString("p.age > 30")
	op := &Limit{
		N: 1,
		Child: &Project{
			Items: []Item{{Name: "name", Expr: query.Var{Name: "p", Prop: "name"}}},
			Child: &Filter{
				Cond:  cond,
				Child: &NodeScan{Var: "p", Label: "Person"},
			},
		},
	}
	rows := runAll(t, op, src)
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	name, _ := rows[0]["name"].Value.AsString()
	if name != "ada" && name != "bob" {
		t.Errorf("name = %q", name)
	}
}

func TestOrderByAndOffset(t *testing.T) {
	src, _ := people(t)
	op := &Limit{
		N:      -1,
		Offset: 1,
		Child: &OrderBy{
			Keys: []OrderKey{{Expr: query.Var{Name: "p", Prop: "age"}, Desc: true}},
			Child: &Project{
				Items: []Item{
					{Name: "p", Expr: query.Var{Name: "p", Prop: "name"}},
					{Name: "age", Expr: query.Var{Name: "p", Prop: "age"}},
				},
				Child: &NodeScan{Var: "p", Label: "Person"},
			},
		},
	}
	// Project drops the node binding, so re-order on projected column.
	op.Child.(*OrderBy).Keys = []OrderKey{{Expr: query.Var{Name: "age"}, Desc: true}}
	rows := runAll(t, op, src)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	first, _ := rows[0]["p"].Value.AsString()
	if first != "ada" { // bob(40) skipped by offset, then ada(36)
		t.Errorf("first after offset = %q", first)
	}
}

func TestAggregateGlobalAndGrouped(t *testing.T) {
	src, _ := people(t)
	// Global count + avg age.
	op := &Aggregate{
		Child: &NodeScan{Var: "p", Label: "Person"},
		Aggs: []AggItem{
			{Name: "n", Fn: "count"},
			{Name: "avgAge", Fn: "avg", Arg: query.Var{Name: "p", Prop: "age"}},
			{Name: "minAge", Fn: "min", Arg: query.Var{Name: "p", Prop: "age"}},
			{Name: "maxAge", Fn: "max", Arg: query.Var{Name: "p", Prop: "age"}},
			{Name: "sumAge", Fn: "sum", Arg: query.Var{Name: "p", Prop: "age"}},
		},
	}
	rows := runAll(t, op, src)
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if !r["n"].Value.Equal(model.Int(3)) {
		t.Errorf("count = %v", r["n"].Value)
	}
	if v, _ := r["avgAge"].Value.AsFloat(); v < 33.6 || v > 33.7 {
		t.Errorf("avg = %v", r["avgAge"].Value)
	}
	if !r["minAge"].Value.Equal(model.Int(25)) || !r["maxAge"].Value.Equal(model.Int(40)) {
		t.Errorf("min/max = %v/%v", r["minAge"].Value, r["maxAge"].Value)
	}
	if v, _ := r["sumAge"].Value.AsFloat(); v != 101 {
		t.Errorf("sum = %v", r["sumAge"].Value)
	}
	// Grouped by label over all nodes.
	op2 := &Aggregate{
		Child:   &NodeScan{Var: "p"},
		GroupBy: []Item{{Name: "lbl", Expr: labelExpr{v: "p"}}},
		Aggs:    []AggItem{{Name: "n", Fn: "count"}},
	}
	rows2 := runAll(t, op2, src)
	if len(rows2) != 2 {
		t.Errorf("groups = %d", len(rows2))
	}
}

// labelExpr extracts a node's label for grouping tests.
type labelExpr struct {
	v    string
	slot int
}

func (l labelExpr) Bind(s *query.Scope) query.Expr {
	l.slot, _ = s.Slot(l.v)
	s.Read[l.slot] = true
	return l
}

func (l labelExpr) Eval(r query.Row) (model.Value, error) {
	return model.Str(r[l.slot].Node.Label), nil
}
func (l labelExpr) String() string { return "label(" + l.v + ")" }

func TestAggregateEmptyInput(t *testing.T) {
	src, _ := people(t)
	op := &Aggregate{
		Child: &NodeScan{Var: "p", Label: "Ghost"},
		Aggs:  []AggItem{{Name: "n", Fn: "count"}},
	}
	rows := runAll(t, op, src)
	if len(rows) != 1 || !rows[0]["n"].Value.Equal(model.Int(0)) {
		t.Errorf("empty aggregate = %v", rows)
	}
}

func TestDistinctOp(t *testing.T) {
	src, _ := people(t)
	// livesIn targets: zurich twice -> distinct once.
	op := &Distinct{
		Child: &Project{
			Items: []Item{{Name: "city", Expr: query.Var{Name: "c", Prop: "name"}}},
			Child: &Expand{
				Child:   &NodeScan{Var: "p", Label: "Person"},
				FromVar: "p", ToVar: "c", Label: "livesIn", Dir: model.Out,
			},
		},
	}
	rows := runAll(t, op, src)
	if len(rows) != 1 {
		t.Errorf("distinct rows = %d", len(rows))
	}
}

func TestCompileFullPipeline(t *testing.T) {
	src, _ := people(t)
	spec := &MatchSpec{
		Nodes: []NodePat{
			{Var: "a", Label: "Person"},
			{Var: "b", Label: "Person"},
		},
		Edges: []EdgePat{{Label: "knows", From: 0, To: 1, Dir: model.Out}},
		Return: []Item{
			{Name: "an", Expr: query.Var{Name: "a", Prop: "name"}},
			{Name: "bn", Expr: query.Var{Name: "b", Prop: "name"}},
		},
		Limit: -1,
	}
	op, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Collect(op, src, []string{"an", "bn"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestCompileDisconnectedComponents(t *testing.T) {
	src, _ := people(t)
	spec := &MatchSpec{
		Nodes: []NodePat{
			{Var: "p", Label: "Person"},
			{Var: "c", Label: "City"},
		},
		Return: []Item{{Name: "p", Expr: query.Var{Name: "p", Prop: "name"}}},
		Limit:  -1,
	}
	op, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Collect(op, src, []string{"p"})
	if err != nil {
		t.Fatal(err)
	}
	// Cartesian: 3 persons x 1 city.
	if len(res.Rows) != 3 {
		t.Errorf("rows = %d", len(res.Rows))
	}
}

func TestCompileEmptyPattern(t *testing.T) {
	if _, err := Compile(&MatchSpec{Limit: -1}); err == nil {
		t.Error("empty pattern should fail")
	}
}

func TestCompileStartsAtMostSelective(t *testing.T) {
	spec := &MatchSpec{
		Nodes: []NodePat{
			{Var: "a"},
			{Var: "b", Label: "Person", Props: model.Props("name", "x")},
		},
		Edges: []EdgePat{{From: 0, To: 1, Dir: model.Out}},
		Limit: -1,
	}
	op, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	s := op.String()
	// The plan should begin with the selective scan of b.
	if want := "NodeScan(b:Person"; len(s) < len(want) || s[:len(want)] != want {
		t.Errorf("plan = %s", s)
	}
}

// probeCountingSource serves an index on "idx" alone and counts how each
// scan was answered.
type probeCountingSource struct {
	Source
	point, label, full int
}

func (s *probeCountingSource) IndexedNodes(label, prop string, v model.Value, fn func(model.Node) bool) (bool, error) {
	switch prop {
	case "idx":
		s.point++
		return true, s.Source.Nodes(func(n model.Node) bool {
			if (label != "" && n.Label != label) || !n.Props.Get("idx").Equal(v) {
				return true
			}
			return fn(n)
		})
	case "":
		s.label++
	}
	return false, nil
}

func (s *probeCountingSource) Nodes(fn func(model.Node) bool) error {
	s.full++
	return s.Source.Nodes(fn)
}

// TestNodeScanProbesEveryPropertyForAnIndex: with two property equalities
// of which one is indexed, the scan must find that index on every
// execution — probing one key picked by map order found it on about half.
func TestNodeScanProbesEveryPropertyForAnIndex(t *testing.T) {
	g := memgraph.New()
	for i := 0; i < 50; i++ {
		if _, err := g.AddNode("N", model.Props("idx", i, "weight", float64(i%2)/2)); err != nil {
			t.Fatal(err)
		}
	}
	for run := 0; run < 64; run++ {
		src := &probeCountingSource{Source: UnindexedSource{g}}
		rows := runAll(t, &NodeScan{Var: "a", Label: "N", PropEq: model.Props("idx", 7, "weight", 0.5)}, src)
		if len(rows) != 1 || !rows[0]["a"].Node.Props.Get("idx").Equal(model.Int(7)) {
			t.Fatalf("run %d: rows = %v, want the one node with idx 7", run, rows)
		}
		if src.point != 1 || src.label != 0 || src.full != 0 {
			t.Fatalf("run %d: %d point lookups, %d label scans, %d full scans; want 1, 0, 0", run, src.point, src.label, src.full)
		}
	}
}
