package vertexkv

import (
	"context"
	"testing"

	"gdbm/internal/algo"
	"gdbm/internal/engine"
	"gdbm/internal/model"
)

func TestMemoryModeBasics(t *testing.T) {
	db, err := New(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	a, _ := db.LoadNode("N", model.Props("name", "a"))
	b, _ := db.LoadNode("N", nil)
	if _, err := db.LoadEdge("e", a, b, nil); err != nil {
		t.Fatal(err)
	}
	es := db.Essentials(context.Background())
	ok, _ := es.NodeAdjacency(a, b)
	if !ok {
		t.Error("adjacency failed")
	}
	// No shortest path on this archetype.
	if es.ShortestPath != nil {
		t.Error("VertexDB row has no shortest-path mark")
	}
	paths, err := es.FixedLengthPaths(a, b, 1)
	if err != nil || len(paths) != 1 {
		t.Errorf("fixed paths: %v %v", paths, err)
	}
	n, _ := es.Summarization(algo.AggCount, "N", "")
	if v, _ := n.AsInt(); v != 2 {
		t.Errorf("count = %v", n)
	}
}

func TestBtreeBackedPersistence(t *testing.T) {
	dir := t.TempDir()
	db, err := New(engine.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := db.LoadNode("N", nil)
	b, _ := db.LoadNode("N", nil)
	db.LoadEdge("e", a, b, nil)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := New(engine.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	g := db2
	if g.Order() != 2 || g.Size() != 1 {
		t.Errorf("after reopen: order=%d size=%d", g.Order(), g.Size())
	}
}
