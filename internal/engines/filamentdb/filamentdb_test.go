package filamentdb

import (
	"context"
	"testing"

	"gdbm/internal/algo"
	"gdbm/internal/engine"
	"gdbm/internal/model"
)

func TestAPIOnlyProfile(t *testing.T) {
	db, err := New(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	a, _ := db.LoadNode("N", nil)
	b, _ := db.LoadNode("N", nil)
	c, _ := db.LoadNode("N", nil)
	db.LoadEdge("e", a, b, nil)
	db.LoadEdge("e", b, c, nil)

	es := db.Essentials(context.Background())
	if es.FixedLengthPaths != nil || es.ShortestPath != nil {
		t.Error("Filament's Table VII row exposes no path utilities")
	}
	nb, err := es.KNeighborhood(a, 2)
	if err != nil || len(nb) != 2 {
		t.Errorf("khood = %v %v", nb, err)
	}
	n, _ := es.Summarization(algo.AggCount, "N", "")
	if v, _ := n.AsInt(); v != 3 {
		t.Errorf("count = %v", n)
	}
	f := db.Features()
	if f.Indexes != engine.No {
		t.Error("Filament's Table I row has no index mark")
	}
	if f.BackendStorage != engine.Yes {
		t.Error("Filament keeps a backend store")
	}
}

func TestBackendPersistence(t *testing.T) {
	dir := t.TempDir()
	db, err := New(engine.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	db.LoadNode("N", model.Props("k", 1))
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
		t.Errorf("order after reopen = %d", db2.Order())
	}
}
