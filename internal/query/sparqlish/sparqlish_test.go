package sparqlish

import (
	"context"
	"math"
	"strconv"
	"testing"

	"gdbm/internal/memgraph"
	"gdbm/internal/model"
	"gdbm/internal/query/plan"
)

// runCollect runs the query through RunStreamCtx into a plan.Collector
// and returns what it collected.
func runCollect(ctx context.Context, input string, src plan.Source) (*plan.Result, error) {
	var c plan.Collector
	if err := RunStreamCtx(ctx, input, src, &c); err != nil {
		return nil, err
	}
	return &c.Res, nil
}

// tripleGraph emulates a triple store: nodes carry a "value" property and
// predicates are edge labels — exactly the layout the triple engine uses.
func tripleGraph(t *testing.T) plan.Source {
	t.Helper()
	g := memgraph.New()
	terms := map[string]model.NodeID{}
	term := func(v string) model.NodeID {
		if id, ok := terms[v]; ok {
			return id
		}
		id, _ := g.AddNode("", model.Props("value", v))
		terms[v] = id
		return id
	}
	triples := [][3]string{
		{"ada", "type", "person"},
		{"bob", "type", "person"},
		{"zurich", "type", "city"},
		{"ada", "name", "Ada Lovelace"},
		{"bob", "name", "Bob"},
		{"ada", "knows", "bob"},
		{"ada", "livesIn", "zurich"},
	}
	for _, tr := range triples {
		g.AddEdge(tr[1], term(tr[0]), term(tr[2]), nil)
	}
	return plan.UnindexedSource{Graph: g}
}

func TestBasicBGP(t *testing.T) {
	src := tripleGraph(t)
	res, err := runCollect(context.Background(), `SELECT ?x WHERE { ?x <type> "person" . }`, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestJoinAcrossTriples(t *testing.T) {
	src := tripleGraph(t)
	res, err := runCollect(context.Background(), `SELECT ?name WHERE { ?x <type> "person" . ?x <name> ?name . ?x <livesIn> "zurich" . }`, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if n, _ := res.Rows[0][0].AsString(); n != "Ada Lovelace" {
		t.Errorf("name = %q", n)
	}
}

func TestFilter(t *testing.T) {
	src := tripleGraph(t)
	res, err := runCollect(context.Background(), `SELECT ?n WHERE { ?x <type> "person" . ?x <name> ?n . FILTER (?n != "Bob") }`, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestOrderLimitDistinct(t *testing.T) {
	src := tripleGraph(t)
	res, err := runCollect(context.Background(), `SELECT DISTINCT ?n WHERE { ?x <name> ?n . } ORDER BY ?n LIMIT 1`, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if n, _ := res.Rows[0][0].AsString(); n != "Ada Lovelace" {
		t.Errorf("first = %q", n)
	}
}

func TestIRISubject(t *testing.T) {
	src := tripleGraph(t)
	res, err := runCollect(context.Background(), `SELECT ?o WHERE { <ada> <knows> ?o . }`, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if o, _ := res.Rows[0][0].AsString(); o != "bob" {
		t.Errorf("o = %q", o)
	}
}

func TestSelectStar(t *testing.T) {
	src := tripleGraph(t)
	res, err := runCollect(context.Background(), `SELECT * WHERE { ?s <knows> ?o . }`, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || len(res.Cols) != 2 {
		t.Fatalf("res = %+v", res)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		``,
		`SELECT WHERE { ?x <p> ?y . }`,           // no projection
		`SELECT ?x { ?x <p> ?y . }`,              // missing WHERE
		`SELECT ?x WHERE { ?x ?p ?y . }`,         // predicate variable
		`SELECT ?z WHERE { ?x <p> ?y . }`,        // unbound projection
		`SELECT ?x WHERE { }`,                    // empty BGP
		`SELECT ?x WHERE { ?x <p> ?y BAD ?z . }`, // junk
		`SELECT ?x WHERE { ?x <> ?y . }`,         // empty predicate
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("parse %q should fail", bad)
		}
	}
}

func TestTrailingDotOptional(t *testing.T) {
	src := tripleGraph(t)
	if _, err := runCollect(context.Background(), `SELECT ?x WHERE { ?x <type> "person" }`, src); err != nil {
		t.Errorf("trailing dot should be optional: %v", err)
	}
}

func TestLimitOffsetCounts(t *testing.T) {
	const where = `SELECT ?x WHERE { ?x <p> ?y . } `
	for _, c := range []struct {
		mods          string
		limit, offset int
		ok            bool
	}{
		{"LIMIT 3", 3, 0, true},
		{"LIMIT 0 OFFSET 2", 0, 2, true},
		{"OFFSET 5", -1, 5, true},
		{"LIMIT " + strconv.Itoa(math.MaxInt), math.MaxInt, 0, true},
		{"LIMIT", 0, 0, false},
		{"LIMIT foo", 0, 0, false},
		{"LIMIT 2.5", 0, 0, false},
		{"OFFSET 1.0", 0, 0, false},
		{"LIMIT 9223372036854775808", 0, 0, false},
		{"LIMIT 18446744073709551617", 0, 0, false},
		{"OFFSET 99999999999999999999", 0, 0, false},
	} {
		q, err := Parse(where + c.mods)
		if !c.ok {
			if err == nil {
				t.Errorf("%q parsed as LIMIT %d OFFSET %d, want an error", c.mods, q.Spec.Limit, q.Spec.Offset)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", c.mods, err)
		} else if q.Spec.Limit != c.limit || q.Spec.Offset != c.offset {
			t.Errorf("%q parsed as LIMIT %d OFFSET %d, want %d %d", c.mods, q.Spec.Limit, q.Spec.Offset, c.limit, c.offset)
		}
	}
}

// TestUserVariableShapedLikeSynthetic: constant terms become anonymous
// pattern nodes, and a user variable shaped like a synthetic name must
// neither collide with one nor be answered from the constant's node.
func TestUserVariableShapedLikeSynthetic(t *testing.T) {
	src := tripleGraph(t)
	for _, v := range []string{"_c1", "_n0", "_n1", "__n1"} {
		q := `SELECT ?` + v + ` WHERE { ?x <type> "person" . ?x <name> ?` + v + ` . }`
		res, err := runCollect(context.Background(), q, src)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if len(res.Rows) != 2 {
			t.Fatalf("%s: rows = %v, want the two persons' names", q, res.Rows)
		}
		for _, row := range res.Rows {
			if n, _ := row[0].AsString(); n != "Ada Lovelace" && n != "Bob" {
				t.Errorf("%s: row %v, want a person's name", q, row)
			}
		}
	}
}
