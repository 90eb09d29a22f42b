package gsql

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
func execCollect(ctx context.Context, input string, e Engine) (*Result, error) {
	var c plan.Collector
	if err := ExecStreamCtx(ctx, input, e, &c); err != nil {
		return nil, err
	}
	return &c.Res, nil
}

// testEngine wraps memgraph + schema as a gsql Engine.
type testEngine struct {
	*memgraph.Graph
	schema *model.Schema
}

func (e *testEngine) Schema() *model.Schema { return e.schema }
func (e *testEngine) IndexedNodes(string, string, model.Value, func(model.Node) bool) (bool, error) {
	return false, nil
}

func newEngine(t *testing.T) *testEngine {
	t.Helper()
	return &testEngine{Graph: memgraph.New(), schema: model.NewSchema()}
}

func mustExec(t *testing.T, e Engine, stmt string) *Result {
	t.Helper()
	res, err := execCollect(context.Background(), stmt, e)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	return res
}

func seed(t *testing.T, e *testEngine) {
	t.Helper()
	mustExec(t, e, `CREATE VERTEX TYPE Person (name STRING REQUIRED UNIQUE, age INT)`)
	mustExec(t, e, `CREATE EDGE TYPE knows FROM Person TO Person`)
	mustExec(t, e, `INSERT VERTEX Person (name = 'ada', age = 36)`)
	mustExec(t, e, `INSERT VERTEX Person (name = 'bob', age = 40)`)
	mustExec(t, e, `INSERT VERTEX Person (name = 'cam', age = 25)`)
	mustExec(t, e, `INSERT EDGE knows FROM 1 TO 2`)
	mustExec(t, e, `INSERT EDGE knows FROM 2 TO 3`)
}

func TestDDL(t *testing.T) {
	e := newEngine(t)
	mustExec(t, e, `CREATE VERTEX TYPE Person (name STRING REQUIRED, age INT)`)
	nt, ok := e.schema.NodeType("Person")
	if !ok || len(nt.Properties) != 2 || !nt.Properties[0].Required {
		t.Fatalf("node type = %+v", nt)
	}
	mustExec(t, e, `CREATE EDGE TYPE knows FROM Person TO Person`)
	rt, ok := e.schema.RelationType("knows")
	if !ok || rt.From != "Person" {
		t.Fatalf("relation type = %+v", rt)
	}
	mustExec(t, e, `DROP EDGE TYPE knows`)
	if _, ok := e.schema.RelationType("knows"); ok {
		t.Error("knows not dropped")
	}
	mustExec(t, e, `DROP VERTEX TYPE Person`)
	if _, ok := e.schema.NodeType("Person"); ok {
		t.Error("Person not dropped")
	}
	// Errors.
	if _, err := execCollect(context.Background(), `CREATE VERTEX Person`, e); err == nil {
		t.Error("missing TYPE should fail")
	}
	if _, err := execCollect(context.Background(), `CREATE VERTEX TYPE X (p BOGUS)`, e); err == nil {
		t.Error("unknown kind should fail")
	}
	if _, err := execCollect(context.Background(), `DROP VERTEX TYPE Ghost`, e); err == nil {
		t.Error("dropping missing type should fail")
	}
}

func TestInsertAndSelect(t *testing.T) {
	e := newEngine(t)
	seed(t, e)
	res := mustExec(t, e, `SELECT name, age FROM Person WHERE age > 30 ORDER BY age DESC`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if n, _ := res.Rows[0][0].AsString(); n != "bob" {
		t.Errorf("first = %q", n)
	}
	if !res.Rows[0][1].Equal(model.Int(40)) {
		t.Errorf("age = %v", res.Rows[0][1])
	}
}

func TestSelectStarUsesSchema(t *testing.T) {
	e := newEngine(t)
	seed(t, e)
	res := mustExec(t, e, `SELECT * FROM Person WHERE name = 'ada'`)
	if len(res.Cols) != 2 || len(res.Rows) != 1 {
		t.Fatalf("res = %+v", res)
	}
	// SELECT * from an undeclared type fails.
	if _, err := execCollect(context.Background(), `SELECT * FROM Ghost`, e); err == nil {
		t.Error("SELECT * on unknown type should fail")
	}
}

func TestAggregatesAndGroupBy(t *testing.T) {
	e := newEngine(t)
	seed(t, e)
	res := mustExec(t, e, `SELECT count(*) AS n, avg(age) AS a FROM Person`)
	if !res.Rows[0][0].Equal(model.Int(3)) {
		t.Errorf("count = %v", res.Rows[0][0])
	}
	mustExec(t, e, `INSERT VERTEX Person (name = 'dot', age = 36)`)
	res2 := mustExec(t, e, `SELECT age, count(*) AS n FROM Person GROUP BY age ORDER BY n DESC LIMIT 1`)
	if len(res2.Rows) != 1 {
		t.Fatalf("rows = %v", res2.Rows)
	}
	if !res2.Rows[0][1].Equal(model.Int(2)) {
		t.Errorf("top group count = %v", res2.Rows[0][1])
	}
}

func TestUpdateAndDelete(t *testing.T) {
	e := newEngine(t)
	seed(t, e)
	mustExec(t, e, `UPDATE VERTEX 1 SET age = 37`)
	res := mustExec(t, e, `SELECT age FROM Person WHERE name = 'ada'`)
	if !res.Rows[0][0].Equal(model.Int(37)) {
		t.Errorf("age = %v", res.Rows[0][0])
	}
	mustExec(t, e, `DELETE EDGE 1`)
	if e.Size() != 1 {
		t.Errorf("edges = %d", e.Size())
	}
	mustExec(t, e, `DELETE VERTEX 1`)
	if e.Order() != 2 {
		t.Errorf("nodes = %d", e.Order())
	}
	if _, err := execCollect(context.Background(), `DELETE VERTEX 99`, e); err == nil {
		t.Error("deleting missing vertex should fail")
	}
}

func TestGraphInstructions(t *testing.T) {
	e := newEngine(t)
	seed(t, e)
	// Shortest path 1 -> 3 via 2.
	res := mustExec(t, e, `SELECT PATH FROM 1 TO 3`)
	if p, _ := res.Rows[0][0].AsString(); p != "1->2->3" {
		t.Errorf("path = %q", p)
	}
	if !res.Rows[0][1].Equal(model.Int(2)) {
		t.Errorf("length = %v", res.Rows[0][1])
	}
	// Fixed length.
	res2 := mustExec(t, e, `SELECT PATH FROM 1 TO 3 MAXLEN 2`)
	if len(res2.Rows) != 1 {
		t.Errorf("maxlen rows = %v", res2.Rows)
	}
	// Neighborhood.
	res3 := mustExec(t, e, `SELECT NEIGHBORS OF 2 DEPTH 1`)
	if len(res3.Rows) != 2 {
		t.Errorf("neighbors = %v", res3.Rows)
	}
	// Reachability.
	res4 := mustExec(t, e, `SELECT REACH FROM 1 TO 3`)
	if b, _ := res4.Rows[0][0].AsBool(); !b {
		t.Error("1 should reach 3")
	}
	res5 := mustExec(t, e, `SELECT REACH FROM 3 TO 1`)
	if b, _ := res5.Rows[0][0].AsBool(); b {
		t.Error("3 should not reach 1")
	}
}

func TestSelectDistinct(t *testing.T) {
	e := newEngine(t)
	seed(t, e)
	mustExec(t, e, `INSERT VERTEX Person (name = 'eve', age = 36)`)
	res := mustExec(t, e, `SELECT DISTINCT age FROM Person`)
	if len(res.Rows) != 3 {
		t.Errorf("distinct ages = %v", res.Rows)
	}
}

func TestStatementErrors(t *testing.T) {
	e := newEngine(t)
	for _, bad := range []string{
		``,
		`42`,
		`FROB X`,
		`INSERT TABLE x`,
		`SELECT name FROM`,
		`SELECT PATH FROM a TO b`,
		`UPDATE VERTEX x SET a = 1`,
		`INSERT EDGE knows FROM 1`,
	} {
		if _, err := execCollect(context.Background(), bad, e); err == nil {
			t.Errorf("exec %q should fail", bad)
		}
	}
}

func TestInsertEdgeMissingEndpoint(t *testing.T) {
	e := newEngine(t)
	seed(t, e)
	if _, err := execCollect(context.Background(), `INSERT EDGE knows FROM 1 TO 99`, e); err == nil {
		t.Error("missing endpoint should fail")
	}
}

func TestSummarizationInstructions(t *testing.T) {
	e := newEngine(t)
	seed(t, e)
	res := mustExec(t, e, `SELECT ORDER`)
	if !res.Rows[0][0].Equal(model.Int(3)) {
		t.Errorf("order = %v", res.Rows[0][0])
	}
	res = mustExec(t, e, `SELECT SIZE`)
	if !res.Rows[0][0].Equal(model.Int(2)) {
		t.Errorf("size = %v", res.Rows[0][0])
	}
	res = mustExec(t, e, `SELECT DEGREE OF 2`)
	if !res.Rows[0][0].Equal(model.Int(2)) {
		t.Errorf("degree = %v", res.Rows[0][0])
	}
	res = mustExec(t, e, `SELECT DEGREE`)
	if len(res.Cols) != 3 {
		t.Fatalf("degree stats cols = %v", res.Cols)
	}
	res = mustExec(t, e, `SELECT DIAMETER`)
	if !res.Rows[0][0].Equal(model.Int(2)) {
		t.Errorf("diameter = %v", res.Rows[0][0])
	}
	res = mustExec(t, e, `SELECT DISTANCE FROM 1 TO 3`)
	if !res.Rows[0][0].Equal(model.Int(2)) {
		t.Errorf("distance = %v", res.Rows[0][0])
	}
	if _, err := execCollect(context.Background(), `SELECT DISTANCE FROM 1`, e); err == nil {
		t.Error("missing TO should fail")
	}
}

func TestCounts(t *testing.T) {
	e := newEngine(t)
	seed(t, e)
	for stmt, rows := range map[string]int{
		`SELECT name FROM Person LIMIT 2`:                            2,
		`SELECT name FROM Person LIMIT 0`:                            0,
		`SELECT name FROM Person LIMIT ` + strconv.Itoa(math.MaxInt): 3,
		`SELECT NEIGHBORS OF 2 DEPTH 2`:                              2,
		`SELECT PATH FROM 1 TO 3 MAXLEN 2`:                           1,
	} {
		if res := mustExec(t, e, stmt); len(res.Rows) != rows {
			t.Errorf("%s: %d rows, want %d", stmt, len(res.Rows), rows)
		}
	}
	for _, bad := range []string{
		`SELECT name FROM Person LIMIT`,
		`SELECT name FROM Person LIMIT 2.5`,
		`SELECT name FROM Person LIMIT 9223372036854775808`,
		`SELECT name FROM Person LIMIT 18446744073709551615`,
		`SELECT NEIGHBORS OF 2 DEPTH 18446744073709551615`,
		`SELECT PATH FROM 1 TO 3 MAXLEN 9223372036854775808`,
	} {
		if _, err := execCollect(context.Background(), bad, e); err == nil {
			t.Errorf("exec %q should fail", bad)
		}
	}
}
