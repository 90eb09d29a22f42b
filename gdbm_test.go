package gdbm_test

import (
	"context"
	"testing"

	"gdbm"
	"gdbm/internal/engine/capability"
)

func TestPublicOpenAllEngines(t *testing.T) {
	names := gdbm.Engines()
	if len(names) != 9 {
		t.Fatalf("engines = %v", names)
	}
	for _, name := range names {
		opts := gdbm.Options{}
		if capability.NeedsDir(name) {
			opts.Dir = t.TempDir()
		}
		e, err := gdbm.Open(name, opts)
		if err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
		if e.Name() != name || e.SurveyRow() == "" {
			t.Errorf("%s identity: name=%s row=%s", name, e.Name(), e.SurveyRow())
		}
		e.Close()
	}
}

func TestPublicQuickstartFlow(t *testing.T) {
	db, err := gdbm.Open("neograph", gdbm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	api := db.(gdbm.GraphAPI)
	ada, _ := api.AddNode("Person", gdbm.Props("name", "ada", "age", 36))
	bob, _ := api.AddNode("Person", gdbm.Props("name", "bob"))
	if _, err := api.AddEdge("knows", ada, bob, nil); err != nil {
		t.Fatal(err)
	}
	res, err := gdbm.QueryContext(context.Background(), db.(gdbm.Querier), `MATCH (a)-[:knows]->(b) RETURN b.name AS n`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if n, _ := res.Rows[0][0].AsString(); n != "bob" {
		t.Errorf("n = %q", n)
	}
	// Algorithms over the public surface.
	ok, err := gdbm.Adjacent(api, ada, bob, gdbm.Out)
	if err != nil || !ok {
		t.Errorf("Adjacent: %v %v", ok, err)
	}
	p, err := gdbm.ShortestPath(api, ada, bob, gdbm.Out)
	if err != nil || p.Len() != 1 {
		t.Errorf("ShortestPath: %v %v", p, err)
	}
	avg, err := gdbm.AggregateNodeProp(api, "Person", "age", gdbm.AggAvg)
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := avg.AsFloat(); f != 36 {
		t.Errorf("avg = %v", avg)
	}
}

func TestPublicGenerateAndTables(t *testing.T) {
	db, err := gdbm.Open("neograph", gdbm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ids, err := gdbm.Generate(gdbm.GenSpec{Kind: gdbm.RMAT, Nodes: 100, EdgesPerNode: 2, Seed: 1}, db.(gdbm.Loader))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 100 {
		t.Fatalf("ids = %d", len(ids))
	}

	var engines []gdbm.Engine
	for _, name := range gdbm.Engines() {
		opts := gdbm.Options{}
		if capability.NeedsDir(name) {
			opts.Dir = t.TempDir()
		}
		e, err := gdbm.Open(name, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		engines = append(engines, e)
	}
	tables, err := gdbm.Tables(engines)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 8 {
		t.Fatalf("tables = %d", len(tables))
	}
	for _, tb := range tables {
		if ms := gdbm.DiffWithPaper(tb); len(ms) != 0 {
			t.Errorf("table %s mismatches: %v", tb.ID, ms)
		}
	}
}

func TestPublicPathExprAndPattern(t *testing.T) {
	db, _ := gdbm.Open("neograph", gdbm.Options{})
	defer db.Close()
	api := db.(gdbm.GraphAPI)
	a, _ := api.AddNode("N", nil)
	b, _ := api.AddNode("N", nil)
	c, _ := api.AddNode("N", nil)
	api.AddEdge("x", a, b, nil)
	api.AddEdge("y", b, c, nil)

	pe, err := gdbm.CompilePathExpr("x/y")
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := gdbm.MatchPath(context.Background(), api, pe, a, gdbm.Reachability)
	if err != nil || len(nodes) != 1 || nodes[0] != c {
		t.Errorf("MatchPath: %v %v", nodes, err)
	}

	pat, err := gdbm.NewPattern(
		[]gdbm.PatternNode{{Var: "u"}, {Var: "v"}},
		[]gdbm.PatternEdge{{From: 0, To: 1, Label: "x"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := gdbm.MatchPattern(context.Background(), api, pat, 0)
	if err != nil || len(ms) != 1 {
		t.Errorf("MatchPattern: %v %v", ms, err)
	}
}

func TestPublicPastLanguages(t *testing.T) {
	langs := gdbm.PastLanguages()
	if len(langs) != 6 {
		t.Fatalf("past languages = %d", len(langs))
	}
}
