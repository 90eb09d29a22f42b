package gql

import (
	"context"
	"math"
	"strconv"
	"testing"

	"gdbm/internal/memgraph"
	"gdbm/internal/model"
	"gdbm/internal/query/plan"
)

// execCollect runs one statement through ExecStreamCtx into a
// plan.Collector and returns what it collected.
func execCollect(ctx context.Context, input string, m Mutator) (*plan.Result, error) {
	var c plan.Collector
	if err := ExecStreamCtx(ctx, input, m, &c); err != nil {
		return nil, err
	}
	return &c.Res, nil
}

// testDB wraps memgraph as a Mutator with no indexes.
type testDB struct{ *memgraph.Graph }

func (testDB) IndexedNodes(string, string, model.Value, func(model.Node) bool) (bool, error) {
	return false, nil
}

func newDB(t *testing.T) testDB {
	t.Helper()
	return testDB{memgraph.New()}
}

func seed(t *testing.T, db testDB) {
	t.Helper()
	stmts := []string{
		`CREATE (a:Person {name: 'ada', age: 36})`,
		`CREATE (b:Person {name: 'bob', age: 40})`,
		`CREATE (c:Person {name: 'cam', age: 25})`,
		`CREATE (z:City {name: 'zurich'})`,
	}
	for _, s := range stmts {
		if _, err := execCollect(context.Background(), s, db); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	edges := []string{
		`MATCH (a:Person {name: 'ada'}), (b:Person {name: 'bob'}) CREATE (a)-[:knows {since: 2019}]->(b)`,
		`MATCH (b:Person {name: 'bob'}), (c:Person {name: 'cam'}) CREATE (b)-[:knows]->(c)`,
		`MATCH (a:Person {name: 'ada'}), (z:City) CREATE (a)-[:livesIn]->(z)`,
		`MATCH (c:Person {name: 'cam'}), (z:City) CREATE (c)-[:livesIn]->(z)`,
	}
	for _, s := range edges {
		if _, err := execCollect(context.Background(), s, db); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
}

func TestCreateAndCount(t *testing.T) {
	db := newDB(t)
	res, err := execCollect(context.Background(), `CREATE (a:Person {name: 'ada'})`, db)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rows[0][0].Equal(model.Int(1)) {
		t.Errorf("nodes created = %v", res.Rows[0][0])
	}
	if db.Order() != 1 {
		t.Errorf("order = %d", db.Order())
	}
}

func TestMatchReturn(t *testing.T) {
	db := newDB(t)
	seed(t, db)
	res, err := execCollect(context.Background(), `MATCH (p:Person) WHERE p.age > 30 RETURN p.name AS name ORDER BY name`, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if n, _ := res.Rows[0][0].AsString(); n != "ada" {
		t.Errorf("row0 = %v", res.Rows[0])
	}
	if n, _ := res.Rows[1][0].AsString(); n != "bob" {
		t.Errorf("row1 = %v", res.Rows[1])
	}
}

func TestMatchEdgePattern(t *testing.T) {
	db := newDB(t)
	seed(t, db)
	res, err := execCollect(context.Background(), `MATCH (a:Person)-[r:knows]->(b:Person) RETURN a.name AS a, b.name AS b, r.since AS since`, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d: %v", len(res.Rows), res.Rows)
	}
}

func TestMatchChainAndReversedArrow(t *testing.T) {
	db := newDB(t)
	seed(t, db)
	// Chain: who lives where ada's friends-of-friends live? cam lives in zurich.
	res, err := execCollect(context.Background(), `MATCH (a:Person {name: 'ada'})-[:knows]->(b)-[:knows]->(c)-[:livesIn]->(z) RETURN c.name AS c, z.name AS z`, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Reversed arrow.
	res2, err := execCollect(context.Background(), `MATCH (b)<-[:knows]-(a:Person {name: 'ada'}) RETURN b.name AS b`, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Rows) != 1 {
		t.Fatalf("reversed rows = %v", res2.Rows)
	}
	if n, _ := res2.Rows[0][0].AsString(); n != "bob" {
		t.Errorf("b = %q", n)
	}
}

func TestUndirectedEdge(t *testing.T) {
	db := newDB(t)
	seed(t, db)
	res, err := execCollect(context.Background(), `MATCH (a:Person {name: 'bob'})-[:knows]-(x) RETURN x.name AS x ORDER BY x`, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("undirected rows = %v", res.Rows)
	}
}

func TestAggregates(t *testing.T) {
	db := newDB(t)
	seed(t, db)
	res, err := execCollect(context.Background(), `MATCH (p:Person) RETURN count(*) AS n, avg(p.age) AS avgAge, max(p.age) AS maxAge`, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if !res.Rows[0][0].Equal(model.Int(3)) {
		t.Errorf("count = %v", res.Rows[0][0])
	}
	if !res.Rows[0][2].Equal(model.Int(40)) {
		t.Errorf("max = %v", res.Rows[0][2])
	}
}

func TestGroupedAggregate(t *testing.T) {
	db := newDB(t)
	seed(t, db)
	// Group persons by whether they live somewhere: count livesIn per city.
	res, err := execCollect(context.Background(), `MATCH (p:Person)-[:livesIn]->(c) RETURN c.name AS city, count(*) AS n`, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if !res.Rows[0][1].Equal(model.Int(2)) {
		t.Errorf("n = %v", res.Rows[0][1])
	}
}

func TestDistinctSkipLimit(t *testing.T) {
	db := newDB(t)
	seed(t, db)
	res, err := execCollect(context.Background(), `MATCH (p:Person)-[:livesIn]->(c) RETURN DISTINCT c.name AS city`, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("distinct rows = %v", res.Rows)
	}
	res2, err := execCollect(context.Background(), `MATCH (p:Person) RETURN p.name AS n ORDER BY n SKIP 1 LIMIT 1`, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Rows) != 1 {
		t.Fatalf("rows = %v", res2.Rows)
	}
	if n, _ := res2.Rows[0][0].AsString(); n != "bob" {
		t.Errorf("skipped row = %q", n)
	}
}

func TestSet(t *testing.T) {
	db := newDB(t)
	seed(t, db)
	if _, err := execCollect(context.Background(), `MATCH (p:Person {name: 'ada'}) SET p.age = p.age + 1`, db); err != nil {
		t.Fatal(err)
	}
	res, _ := execCollect(context.Background(), `MATCH (p:Person {name: 'ada'}) RETURN p.age AS age`, db)
	if !res.Rows[0][0].Equal(model.Int(37)) {
		t.Errorf("age = %v", res.Rows[0][0])
	}
}

func TestDelete(t *testing.T) {
	db := newDB(t)
	seed(t, db)
	// Plain DELETE on a connected node cascades in memgraph (engines with
	// referential constraints veto it; that is tested in the engine suites).
	if _, err := execCollect(context.Background(), `MATCH (p:Person {name: 'cam'}) DETACH DELETE p`, db); err != nil {
		t.Fatal(err)
	}
	res, _ := execCollect(context.Background(), `MATCH (p:Person) RETURN count(*) AS n`, db)
	if !res.Rows[0][0].Equal(model.Int(2)) {
		t.Errorf("count after delete = %v", res.Rows[0][0])
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		``,
		`MATCH`,
		`MATCH (a RETURN a`,
		`MATCH (a) RETURN`,
		`FOO (a)`,
		`MATCH (a)-[>(b) RETURN a`,
		`CREATE (a)-[]->(b)`, // edge without label
		`MATCH (a) LIMIT x`,
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("parse %q should fail", bad)
		}
	}
}

func TestExecErrors(t *testing.T) {
	db := newDB(t)
	// CREATE edge with unbound endpoint.
	if _, err := execCollect(context.Background(), `CREATE (a)-[:r]->(b)`, db); err == nil {
		t.Error("unbound endpoints should fail")
	}
	// SET on unbound var.
	seed(t, db)
	if _, err := execCollect(context.Background(), `MATCH (p:Person {name:'ada'}) SET q.x = 1`, db); err == nil {
		t.Error("unbound SET target should fail")
	}
}

func TestEdgePropertyFilterInPattern(t *testing.T) {
	db := newDB(t)
	seed(t, db)
	res, err := execCollect(context.Background(), `MATCH (a)-[r:knows {since: 2019}]->(b) RETURN b.name AS b`, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if n, _ := res.Rows[0][0].AsString(); n != "bob" {
		t.Errorf("b = %q", n)
	}
}

func TestRepeatedVariableUnifies(t *testing.T) {
	db := newDB(t)
	seed(t, db)
	// (a)-[:livesIn]->(z), (c)-[:livesIn]->(z) with shared z: pairs living
	// in the same city: (ada,cam) and (cam,ada) and self-pairs.
	res, err := execCollect(context.Background(), `MATCH (a:Person)-[:livesIn]->(z), (c:Person)-[:livesIn]->(z) WHERE a.name <> c.name RETURN a.name AS a, c.name AS c`, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("shared-city pairs = %v", res.Rows)
	}
}

var _ plan.Source = testDB{}
var _ Mutator = testDB{}

func TestSkipLimitCounts(t *testing.T) {
	for _, c := range []struct {
		stmt          string
		limit, offset int
		ok            bool
	}{
		{"MATCH (a) RETURN a SKIP 2 LIMIT 3", 3, 2, true},
		{"MATCH (a) RETURN a LIMIT " + strconv.Itoa(math.MaxInt), math.MaxInt, 0, true},
		{"MATCH (a) RETURN a LIMIT", 0, 0, false},
		{"MATCH (a) RETURN a LIMIT 2.5", 0, 0, false},
		{"MATCH (a) RETURN a SKIP x", 0, 0, false},
		{"MATCH (a) RETURN a LIMIT 9223372036854775808", 0, 0, false},
		{"MATCH (a) RETURN a LIMIT 18446744073709551617", 0, 0, false},
		{"MATCH (a) RETURN a SKIP 18446744073709551617", 0, 0, false},
		{"MATCH (a)-[:r*1..18446744073709551617]->(b) RETURN b", 0, 0, false},
	} {
		st, err := Parse(c.stmt)
		if !c.ok {
			if err == nil {
				t.Errorf("%q parsed as LIMIT %d SKIP %d, want an error", c.stmt, st.Match.Limit, st.Match.Offset)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", c.stmt, err)
		} else if st.Match.Limit != c.limit || st.Match.Offset != c.offset {
			t.Errorf("%q parsed as LIMIT %d SKIP %d, want %d %d", c.stmt, st.Match.Limit, st.Match.Offset, c.limit, c.offset)
		}
	}
}

// TestUserVariableShapedLikeSynthetic: the planner names anonymous nodes,
// and a user variable of the same shape must neither collide with that
// name nor be answered from the anonymous node.
func TestUserVariableShapedLikeSynthetic(t *testing.T) {
	db := newDB(t)
	seed(t, db)
	for _, tc := range []struct {
		stmt string
		want []string
	}{
		{`MATCH (_n1:Person)-[:livesIn]->() RETURN _n1.name AS name ORDER BY name`, []string{"ada", "cam"}},
		{`MATCH (_n1:Person)-[:livesIn]->(), (__n1)-[:knows]->(_n1) RETURN _n1.name AS name ORDER BY name`, []string{"cam"}},
	} {
		res, err := execCollect(context.Background(), tc.stmt, db)
		if err != nil {
			t.Fatalf("%s: %v", tc.stmt, err)
		}
		if len(res.Rows) != len(tc.want) {
			t.Fatalf("%s: rows = %v, want %v", tc.stmt, res.Rows, tc.want)
		}
		for i, w := range tc.want {
			if n, _ := res.Rows[i][0].AsString(); n != w {
				t.Errorf("%s: row %d = %v, want %q", tc.stmt, i, res.Rows[i], w)
			}
		}
	}
}
