package triplestore

import (
	"context"
	"path/filepath"
	"slices"
	"testing"

	"gdbm/internal/engine"
	"gdbm/internal/model"
	"gdbm/internal/reason"
)

func openMem(t *testing.T) *DB {
	t.Helper()
	db, err := New(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestAddTripleAndDedup(t *testing.T) {
	db := openMem(t)
	if err := db.AddTriple("a", "p", "b"); err != nil {
		t.Fatal(err)
	}
	if err := db.AddTriple("a", "p", "b"); err != nil {
		t.Fatal(err)
	}
	if db.Count() != 1 {
		t.Errorf("count = %d (dedup failed)", db.Count())
	}
	db.AddTriple("a", "q", "b")
	db.AddTriple("b", "p", "a")
	if db.Count() != 3 {
		t.Errorf("count = %d", db.Count())
	}
	var got [][3]string
	db.Triples(func(s, p, o string) bool {
		got = append(got, [3]string{s, p, o})
		return true
	})
	if len(got) != 3 {
		t.Errorf("triples = %v", got)
	}
}

func TestTermInterning(t *testing.T) {
	db := openMem(t)
	a1, _ := db.Term("ada")
	a2, _ := db.Term("ada")
	if a1 != a2 {
		t.Error("terms not interned")
	}
	if id, ok := db.TermID("ada"); !ok || id != a1 {
		t.Errorf("TermID = %v %v", id, ok)
	}
	if _, ok := db.TermID("ghost"); ok {
		t.Error("missing term found")
	}
}

func TestSparqlQuery(t *testing.T) {
	db := openMem(t)
	db.AddTriple("ada", "type", "person")
	db.AddTriple("bob", "type", "person")
	db.AddTriple("ada", "knows", "bob")
	res, err := engine.QueryContext(context.Background(), db, `SELECT ?x WHERE { ?x <type> "person" . ?x <knows> ?y . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if v, _ := res.Rows[0][0].AsString(); v != "ada" {
		t.Errorf("x = %q", v)
	}
}

func TestInsertData(t *testing.T) {
	db := openMem(t)
	res, err := engine.QueryContext(context.Background(), db, `INSERT DATA { <a> <p> <b> . <a> <name> "Ada L" . }`)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Rows[0][0].AsInt(); v != 2 {
		t.Errorf("inserted = %v", res.Rows[0][0])
	}
	if db.Count() != 2 {
		t.Errorf("count = %d", db.Count())
	}
	if _, err := engine.QueryContext(context.Background(), db, `INSERT DATA <a> <p> <b>`); err == nil {
		t.Error("missing braces should fail")
	}
	if _, err := engine.QueryContext(context.Background(), db, `INSERT DATA { <a> <p> . }`); err == nil {
		t.Error("2-term triple should fail")
	}
}

func TestMaterializeRDFS(t *testing.T) {
	db := openMem(t)
	db.AddTriple("cat", "subClassOf", "animal")
	db.AddTriple("felix", "type", "cat")
	n, err := db.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("derived = %d", n)
	}
	res, _ := engine.QueryContext(context.Background(), db, `SELECT ?x WHERE { ?x <type> <animal> . }`)
	if len(res.Rows) != 1 {
		t.Errorf("inferred type query = %v", res.Rows)
	}
	// Idempotent.
	n2, _ := db.Materialize()
	if n2 != 0 {
		t.Errorf("re-materialize derived %d", n2)
	}
}

func TestCustomRule(t *testing.T) {
	db := openMem(t)
	db.AddTriple("a", "parent", "b")
	db.AddTriple("b", "parent", "c")
	err := db.AddRule(reason.Rule{
		Name: "grandparent",
		Head: reason.Pattern{S: "?x", P: "grandparent", O: "?z"},
		Body: []reason.Pattern{{S: "?x", P: "parent", O: "?y"}, {S: "?y", P: "parent", O: "?z"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Materialize(); err != nil {
		t.Fatal(err)
	}
	res, _ := engine.QueryContext(context.Background(), db, `SELECT ?x WHERE { ?x <grandparent> <c> . }`)
	if len(res.Rows) != 1 {
		t.Errorf("grandparent query = %v", res.Rows)
	}
	// Unsafe rules rejected.
	bad := reason.Rule{Head: reason.Pattern{S: "?q", P: "x", O: "y"}}
	if err := db.AddRule(bad); err == nil {
		t.Error("unsafe rule accepted")
	}
}

// TestMaterializeRejectsValuelessNode: an edge added through the generic
// graph API may end at a node that is no term. A rule that binds such a
// node has no triple to derive, so Materialize must fail, not assert one.
func TestMaterializeRejectsValuelessNode(t *testing.T) {
	db := openMem(t)
	if err := db.AddTriple("a", "p", "b"); err != nil {
		t.Fatal(err)
	}
	bare, err := db.AddNode("", nil)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := db.TermID("a")
	if _, err := db.AddEdge("p", bare, a, nil); err != nil {
		t.Fatal(err)
	}
	if err := db.AddRule(reason.Rule{
		Name: "copy",
		Head: reason.Pattern{S: "?x", P: "q", O: "?y"},
		Body: []reason.Pattern{{S: "?x", P: "p", O: "?y"}},
	}); err != nil {
		t.Fatal(err)
	}
	if n, err := db.Materialize(); err == nil {
		t.Fatalf("Materialize derived %d facts from a node without a value", n)
	}
	if _, ok := db.TermID(""); ok {
		t.Error("Materialize interned the empty term")
	}
}

func TestPersistenceRebuildsTermsAndIndex(t *testing.T) {
	dir := t.TempDir()
	db, err := New(engine.Options{Dir: filepath.Join(dir)})
	if err != nil {
		t.Fatal(err)
	}
	db.AddTriple("ada", "knows", "bob")
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := New(engine.Options{Dir: filepath.Join(dir)})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Count() != 1 {
		t.Fatalf("count after reopen = %d", db2.Count())
	}
	// Terms dictionary rebuilt: dedup still works.
	db2.AddTriple("ada", "knows", "bob")
	if db2.Count() != 1 {
		t.Errorf("dedup after reopen failed: %d", db2.Count())
	}
	// The value index serves queries.
	res, err := engine.QueryContext(context.Background(), db2, `SELECT ?o WHERE { <ada> <knows> ?o . }`)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("query after reopen: %v %v", res, err)
	}
}

func TestLoaderMapsPropertyGraph(t *testing.T) {
	db := openMem(t)
	a, err := db.LoadNode("Person", model.Props("name", "ada", "age", 36))
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.LoadNode("Person", model.Props("name", "bob"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.LoadEdge("knows", a, b, nil); err != nil {
		t.Fatal(err)
	}
	// The property graph became statements: type, age and knows.
	want := map[[3]string]bool{
		{"ada", "type", "Person"}: true,
		{"ada", "age", "36"}:      true,
		{"ada", "knows", "bob"}:   true,
		{"bob", "type", "Person"}: true,
	}
	found := 0
	db.Triples(func(s, p, o string) bool {
		if want[[3]string{s, p, o}] {
			found++
		}
		return true
	})
	if found != len(want) {
		t.Errorf("found %d/%d expected statements", found, len(want))
	}
	// LoadEdge is idempotent on duplicate statements and returns the edge.
	eid, err := db.LoadEdge("knows", a, b, nil)
	if err != nil || eid == 0 {
		t.Errorf("re-load edge: %v %v", eid, err)
	}
}

// TestLoadNodeTermIDsIgnoreMapOrder: a node's literals get their term ids
// in property-key order, so every fresh load numbers them alike.
func TestLoadNodeTermIDsIgnoreMapOrder(t *testing.T) {
	props := model.Props("name", "ada", "age", 36, "city", "paris", "rank", 2, "score", 7, "zone", "eu")
	literals := []string{"36", "paris", "2", "7", "eu"}
	var first []model.NodeID
	for i := 0; i < 20; i++ {
		db := openMem(t)
		if _, err := db.LoadNode("Person", props); err != nil {
			t.Fatal(err)
		}
		var ids []model.NodeID
		for _, lit := range literals {
			id, ok := db.TermID(lit)
			if !ok {
				t.Fatalf("literal %q has no term", lit)
			}
			ids = append(ids, id)
		}
		if first == nil {
			first = ids
		} else if !slices.Equal(ids, first) {
			t.Fatalf("load %d numbers %v as %v, the first load as %v", i, literals, ids, first)
		}
	}
}
