package neograph

import (
	"context"
	"testing"

	"gdbm/internal/engine"
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

func TestQueryLanguageRoundTrip(t *testing.T) {
	db := openDB(t)
	if _, err := engine.QueryContext(context.Background(), db, `CREATE (a:P {name: 'ada'})`); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.QueryContext(context.Background(), db, `CREATE (b:P {name: 'bob'})`); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.QueryContext(context.Background(), db, `MATCH (a:P {name: 'ada'}), (b:P {name: 'bob'}) CREATE (a)-[:knows]->(b)`); err != nil {
		t.Fatal(err)
	}
	res, err := engine.QueryContext(context.Background(), db, `MATCH (a)-[:knows]->(b) RETURN b.name AS n`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if db.LanguageName() != "gql" {
		t.Errorf("language = %q", db.LanguageName())
	}
}

func TestCreateIndexBackfillsAndServesPlanner(t *testing.T) {
	db := openDB(t)
	for i := 0; i < 100; i++ {
		db.AddNode("P", model.Props("idx", i))
	}
	if err := db.CreateIndex("idx"); err != nil {
		t.Fatal(err)
	}
	n := 0
	handled, err := db.IndexedNodes("P", "idx", model.Int(42), func(model.Node) bool { n++; return true })
	if err != nil || !handled || n != 1 {
		t.Fatalf("indexed lookup: handled=%v n=%d err=%v", handled, n, err)
	}
	// Index stays maintained for new inserts.
	db.AddNode("P", model.Props("idx", 42))
	n = 0
	db.IndexedNodes("P", "idx", model.Int(42), func(model.Node) bool { n++; return true })
	if n != 2 {
		t.Errorf("post-insert lookup = %d", n)
	}
	// Duplicate index rejected.
	if err := db.CreateIndex("idx"); err == nil {
		t.Error("duplicate index should fail")
	}
}

func TestDiskPersistenceWithLabelIndexRebuild(t *testing.T) {
	dir := t.TempDir()
	db, err := New(engine.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	db.AddNode("P", model.Props("name", "ada"))
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := New(engine.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Order() != 1 {
		t.Fatalf("order after reopen = %d", db2.Order())
	}
	res, err := engine.QueryContext(context.Background(), db2, `MATCH (p:P) RETURN p.name AS n`)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("query after reopen: %v %v", res, err)
	}
}
