package gstore

import (
	"context"
	"testing"

	"gdbm/internal/engine"
	"gdbm/internal/enginetest/diff"
	"gdbm/internal/model"
)

func openDB(t *testing.T) *DB {
	t.Helper()
	db, err := New(engine.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestRequiresDirectory(t *testing.T) {
	if _, err := New(engine.Options{}); err == nil {
		t.Error("gstore without a directory must fail (external memory only)")
	}
}

func TestLanguageDDLDMLQuery(t *testing.T) {
	db := openDB(t)
	stmts := []string{
		`CREATE VERTEX TYPE City (name STRING, pop INT)`,
		`INSERT VERTEX City (name = 'zurich', pop = 400000)`,
		`INSERT VERTEX City (name = 'basel', pop = 180000)`,
	}
	for _, s := range stmts {
		if _, err := engine.QueryContext(context.Background(), db, s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	res, err := engine.QueryContext(context.Background(), db, `SELECT name FROM City WHERE pop > 200000`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if n, _ := res.Rows[0][0].AsString(); n != "zurich" {
		t.Errorf("name = %q", n)
	}
}

func TestGraphInstructions(t *testing.T) {
	db := openDB(t)
	for i := 0; i < 4; i++ {
		if _, err := engine.QueryContext(context.Background(), db, `INSERT VERTEX N`); err != nil {
			t.Fatal(err)
		}
	}
	engine.QueryContext(context.Background(), db, `INSERT EDGE e FROM 1 TO 2`)
	engine.QueryContext(context.Background(), db, `INSERT EDGE e FROM 2 TO 3`)
	engine.QueryContext(context.Background(), db, `INSERT EDGE e FROM 3 TO 4`)
	res, err := engine.QueryContext(context.Background(), db, `SELECT PATH FROM 1 TO 4`)
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := res.Rows[0][0].AsString(); p != "1->2->3->4" {
		t.Errorf("path = %q", p)
	}
	res2, _ := engine.QueryContext(context.Background(), db, `SELECT REACH FROM 4 TO 1`)
	if b, _ := res2.Rows[0][0].AsBool(); b {
		t.Error("4 should not reach 1")
	}
	res3, _ := engine.QueryContext(context.Background(), db, `SELECT NEIGHBORS OF 2`)
	if len(res3.Rows) != 2 {
		t.Errorf("neighbors = %v", res3.Rows)
	}
}

func TestEverythingOnDiskSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := New(engine.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	engine.QueryContext(context.Background(), db, `INSERT VERTEX N (k = 7)`)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := New(engine.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	n, err := db2.Graph().Node(1)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := n.Props.Get("k").AsInt(); v != 7 {
		t.Errorf("k = %v", n.Props)
	}
}

func TestEssentialsKNeighborhoodRoutesThroughQL(t *testing.T) {
	db := openDB(t)
	for i := 0; i < 3; i++ {
		engine.QueryContext(context.Background(), db, `INSERT VERTEX N`)
	}
	engine.QueryContext(context.Background(), db, `INSERT EDGE e FROM 1 TO 2`)
	engine.QueryContext(context.Background(), db, `INSERT EDGE e FROM 2 TO 3`)
	es := db.Essentials(context.Background())
	nb, err := es.KNeighborhood(model.NodeID(1), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(nb) != 2 {
		t.Errorf("khood = %v", nb)
	}
}

// TestSurfaceAnswersIDAdjacency checks that the gsql surface hands out the
// (edge, far node) pairs Neighbors enumerates, in its order.
func TestSurfaceAnswersIDAdjacency(t *testing.T) {
	diff.IDAdjacency(t, gsqlSurface{openDB(t)})
}
