package sonesdb

import (
	"context"
	"errors"
	"testing"

	"gdbm/internal/engine"
	"gdbm/internal/enginetest/diff"
	"gdbm/internal/model"
)

func openDB(t *testing.T) *DB {
	t.Helper()
	db, err := New(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestMainMemoryOnly(t *testing.T) {
	if _, err := New(engine.Options{Dir: t.TempDir()}); err == nil {
		t.Error("sonesdb must reject a data directory (main-memory only)")
	}
}

func TestFullLanguageSurface(t *testing.T) {
	db := openDB(t)
	stmts := []string{
		`CREATE VERTEX TYPE Person (name STRING REQUIRED UNIQUE, age INT)`,
		`CREATE EDGE TYPE knows FROM Person TO Person`,
		`INSERT VERTEX Person (name = 'ada', age = 36)`,
		`INSERT VERTEX Person (name = 'bob', age = 40)`,
		`INSERT EDGE knows FROM 1 TO 2`,
	}
	for _, s := range stmts {
		if _, err := engine.QueryContext(context.Background(), db, s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	res, err := engine.QueryContext(context.Background(), db, `SELECT name FROM Person WHERE age > 30 ORDER BY name`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if db.LanguageName() != "gsql" {
		t.Errorf("language = %s", db.LanguageName())
	}
}

func TestIdentityAndCardinality(t *testing.T) {
	db := openDB(t)
	db.AddIdentity("P", "name")
	db.AddCardinality("owns", 1)
	a, err := db.AddNode("P", model.Props("name", "ada"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddNode("P", model.Props("name", "ada")); !errors.Is(err, model.ErrConstraint) {
		t.Errorf("duplicate identity: %v", err)
	}
	b, _ := db.AddNode("P", model.Props("name", "bob"))
	c, _ := db.AddNode("P", model.Props("name", "cam"))
	if _, err := db.AddEdge("owns", a, b, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddEdge("owns", a, c, nil); !errors.Is(err, model.ErrConstraint) {
		t.Errorf("cardinality overflow: %v", err)
	}
}

func TestGroupingsAreComplexRelations(t *testing.T) {
	db := openDB(t)
	a, _ := db.AddNode("P", model.Props("name", "a"))
	b, _ := db.AddNode("P", model.Props("name", "b"))
	c, _ := db.AddNode("P", model.Props("name", "c"))
	if _, err := db.AddGrouping("team", []model.NodeID{a, b, c}, model.Props("name", "core")); err != nil {
		t.Fatal(err)
	}
	if db.Groupings() != 1 {
		t.Errorf("groupings = %d", db.Groupings())
	}
	if _, err := db.AddGrouping("team", []model.NodeID{a, 999}, nil); err == nil {
		t.Error("grouping with missing member should fail")
	}
}

func TestEssentialsProfile(t *testing.T) {
	db := openDB(t)
	es := db.Essentials(context.Background())
	if es.NodeAdjacency == nil || es.Summarization == nil {
		t.Error("adjacency and summarization must be exposed")
	}
	if es.KNeighborhood != nil || es.ShortestPath != nil || es.FixedLengthPaths != nil {
		t.Error("Sones' Table VII row exposes only adjacency and summarization")
	}
}

// TestSurfaceAnswersIDAdjacency checks that the gsql surface hands out the
// (edge, far node) pairs Neighbors enumerates, in its order.
func TestSurfaceAnswersIDAdjacency(t *testing.T) {
	diff.IDAdjacency(t, gsqlSurface{openDB(t)})
}
