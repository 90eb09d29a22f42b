package gql

import (
	"context"
	"strings"
	"testing"

	"gdbm/internal/model"
)

// chainDB builds n0 -next-> n1 -next-> ... -next-> n5 plus a side branch.
func chainDB(t *testing.T) testDB {
	t.Helper()
	db := newDB(t)
	var ids []model.NodeID
	for i := 0; i < 6; i++ {
		id, _ := db.AddNode("N", model.Props("i", i))
		ids = append(ids, id)
	}
	for i := 0; i+1 < 6; i++ {
		db.AddEdge("next", ids[i], ids[i+1], nil)
	}
	side, _ := db.AddNode("Side", model.Props("i", 99))
	db.AddEdge("branch", ids[2], side, nil)
	return db
}

func TestVarLengthUnbounded(t *testing.T) {
	db := chainDB(t)
	res, err := execCollect(context.Background(), `MATCH (a:N {i: 0})-[:next*]->(b) RETURN b.i AS i ORDER BY i`, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if v, _ := res.Rows[0][0].AsInt(); v != 1 {
		t.Errorf("first = %v", res.Rows[0][0])
	}
	if v, _ := res.Rows[4][0].AsInt(); v != 5 {
		t.Errorf("last = %v", res.Rows[4][0])
	}
}

func TestVarLengthBounded(t *testing.T) {
	db := chainDB(t)
	res, err := execCollect(context.Background(), `MATCH (a:N {i: 0})-[:next*2..3]->(b) RETURN b.i AS i ORDER BY i`, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	v0, _ := res.Rows[0][0].AsInt()
	v1, _ := res.Rows[1][0].AsInt()
	if v0 != 2 || v1 != 3 {
		t.Errorf("reachable at 2..3 hops = %d, %d", v0, v1)
	}
}

func TestVarLengthExactAndOpenRanges(t *testing.T) {
	db := chainDB(t)
	res, err := execCollect(context.Background(), `MATCH (a:N {i: 0})-[:next*3]->(b) RETURN b.i AS i`, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || !res.Rows[0][0].Equal(model.Int(3)) {
		t.Fatalf("*3 rows = %v", res.Rows)
	}
	res, err = execCollect(context.Background(), `MATCH (a:N {i: 0})-[:next*..2]->(b) RETURN count(*) AS n`, db)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rows[0][0].Equal(model.Int(2)) {
		t.Errorf("*..2 count = %v", res.Rows[0][0])
	}
	res, err = execCollect(context.Background(), `MATCH (a:N {i: 0})-[:next*4..]->(b) RETURN count(*) AS n`, db)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rows[0][0].Equal(model.Int(2)) {
		t.Errorf("*4.. count = %v", res.Rows[0][0])
	}
}

func TestVarLengthZeroMinIncludesStart(t *testing.T) {
	db := chainDB(t)
	res, err := execCollect(context.Background(), `MATCH (a:N {i: 0})-[:next*0..1]->(b) RETURN b.i AS i ORDER BY i`, db)
	if err != nil {
		t.Fatal(err)
	}
	// b ∈ {a itself (0 hops), n1}.
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if !res.Rows[0][0].Equal(model.Int(0)) {
		t.Errorf("zero-hop binding = %v", res.Rows[0][0])
	}
}

func TestVarLengthReverseAndJoin(t *testing.T) {
	db := chainDB(t)
	// Reverse: who reaches n4 in 1..2 next-hops?
	res, err := execCollect(context.Background(), `MATCH (b:N {i: 4})<-[:next*1..2]-(a) RETURN a.i AS i ORDER BY i`, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("reverse rows = %v", res.Rows)
	}
	// Bound-bound connectivity check.
	res, err = execCollect(context.Background(), `MATCH (a:N {i: 0}), (b:N {i: 5}) MATCH (a)-[:next*]->(b) RETURN count(*) AS n`, db)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rows[0][0].Equal(model.Int(1)) {
		t.Errorf("connectivity count = %v", res.Rows[0][0])
	}
}

func TestVarLengthLabelRespected(t *testing.T) {
	db := chainDB(t)
	// branch label is not next: side node unreachable through next*.
	res, err := execCollect(context.Background(), `MATCH (a:N {i: 0})-[:next*]->(b:Side) RETURN count(*) AS n`, db)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rows[0][0].Equal(model.Int(0)) {
		t.Errorf("label filter failed: %v", res.Rows[0][0])
	}
	// Any-label variable length reaches it.
	res, err = execCollect(context.Background(), `MATCH (a:N {i: 0})-[*]->(b:Side) RETURN count(*) AS n`, db)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rows[0][0].Equal(model.Int(1)) {
		t.Errorf("any-label varlength: %v", res.Rows[0][0])
	}
}

func TestVarLengthParseErrors(t *testing.T) {
	for _, bad := range []string{
		`MATCH (a)-[r:next*]->(b) RETURN b`,    // edge var on varlength
		`MATCH (a)-[:next*3..2]->(b) RETURN b`, // empty range
		`CREATE (a)-[:r*]->(b)`,                // varlength in CREATE
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("parse %q should fail", bad)
		}
	}
}

// TestVarLengthBounds pins what each written range parses to. plan reads
// Max 0 as unbounded, so a written upper bound of 0 is refused with an
// error that names the range rather than silently widened.
func TestVarLengthBounds(t *testing.T) {
	for _, tc := range []struct {
		mod      string
		min, max int
		err      string // substring of the parse error; "" = parses
	}{
		{mod: "*", min: 1, max: 0},
		{mod: "*3", min: 3, max: 3},
		{mod: "*..2", min: 1, max: 2},
		{mod: "*4..", min: 4, max: 0},
		{mod: "*0..", min: 0, max: 0},
		{mod: "*0..1", min: 0, max: 1},
		{mod: "*0", err: "range 0..0"},
		{mod: "*0..0", err: "range 0..0"},
		{mod: "*..0", err: "range 1..0"},
		{mod: "*2..0", err: "range 2..0 is empty"},
		{mod: "*3..2", err: "range 3..2 is empty"},
	} {
		st, err := Parse("MATCH (a)-[:next" + tc.mod + "]->(b) RETURN b")
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("%s: err = %v, want one naming %q", tc.mod, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.mod, err)
			continue
		}
		if e := st.Match.Edges[0]; !e.VarLength || e.Min != tc.min || e.Max != tc.max {
			t.Errorf("%s: parsed as %d..%d (var-length %v), want %d..%d", tc.mod, e.Min, e.Max, e.VarLength, tc.min, tc.max)
		}
	}
}
