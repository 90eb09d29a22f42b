package hyperdb

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"gdbm/internal/algo"
	"gdbm/internal/engine"
	"gdbm/internal/model"
	"gdbm/internal/storage/kv"
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

func TestAtomsAndLinks(t *testing.T) {
	db := openDB(t)
	a, err := db.AddNode("", model.Props("name", "a"))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := db.AddNode("", nil)
	c, _ := db.AddNode("", nil)
	link, err := db.AddHyperEdge("rel", []model.NodeID{a, b, c}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if db.Order() != 3 || db.Size() != 1 {
		t.Fatalf("order=%d size=%d", db.Order(), db.Size())
	}
	e, _ := db.HyperEdge(link)
	if len(e.Members) != 3 {
		t.Errorf("members = %v", e.Members)
	}
}

func TestTypedAtomsAndIdentity(t *testing.T) {
	db := openDB(t)
	db.Schema().EnsureNodeType("Protein", model.Props("name", ""))
	db.SetIdentity("Protein", "name")
	if _, err := db.AddNode("Protein", model.Props("name", "p53")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddNode("Protein", model.Props("name", "p53")); !errors.Is(err, model.ErrConstraint) {
		t.Errorf("duplicate identity: %v", err)
	}
	if _, err := db.AddNode("Protein", nil); !errors.Is(err, model.ErrConstraint) {
		t.Errorf("missing identity prop: %v", err)
	}
	if _, err := db.AddNode("Ghost", nil); !errors.Is(err, model.ErrConstraint) {
		t.Errorf("undeclared type: %v", err)
	}
}

// TestIdentityUnderConcurrentWriters: the identity check and the insert it
// admits are one step under the core's mutation lock, so of eight writers
// adding the same atom at once exactly one succeeds. Each round adds a
// fresh name, so the identity scan the writers race on grows.
func TestIdentityUnderConcurrentWriters(t *testing.T) {
	const rounds, writers = 200, 8
	db := openDB(t)
	db.Schema().EnsureNodeType("Protein", model.Props("name", ""))
	db.SetIdentity("Protein", "name")
	for r := 0; r < rounds; r++ {
		name := fmt.Sprintf("x%d", r)
		var wg sync.WaitGroup
		var mu sync.Mutex
		ok := 0
		start := make(chan struct{})
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				_, err := db.AddNode("Protein", model.Props("name", name))
				switch {
				case err == nil:
					mu.Lock()
					ok++
					mu.Unlock()
				case !errors.Is(err, model.ErrConstraint):
					t.Error(err)
				}
			}()
		}
		close(start)
		wg.Wait()
		if ok != 1 {
			t.Fatalf("round %d: %d of %d writers added the same identity", r, ok, writers)
		}
	}
}

// TestLinkSharingAtomLabel: a link labelled like an atom type, carrying
// the identity property, is neither counted nor judged as an atom.
func TestLinkSharingAtomLabel(t *testing.T) {
	db := openDB(t)
	db.Schema().EnsureNodeType("Protein", model.Props("name", ""))
	db.SetIdentity("Protein", "name")
	a, err := db.AddNode("Protein", model.Props("name", "a"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddHyperEdge("Protein", []model.NodeID{a}, model.Props("name", "x")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddNode("Protein", model.Props("name", "x")); err != nil {
		t.Fatalf("the link's name blocked an atom: %v", err)
	}
	n, err := db.Essentials(context.Background()).Summarization(algo.AggCount, "Protein", "")
	if err != nil {
		t.Fatal(err)
	}
	if n.String() != "2" {
		t.Errorf("count Protein = %s, want 2", n)
	}
}

func TestEssentialsHyperSemantics(t *testing.T) {
	db := openDB(t)
	a, _ := db.AddNode("", nil)
	b, _ := db.AddNode("", nil)
	c, _ := db.AddNode("", nil)
	d, _ := db.AddNode("", nil)
	e1, _ := db.AddHyperEdge("x", []model.NodeID{a, b, c}, nil)
	e2, _ := db.AddHyperEdge("y", []model.NodeID{c, d}, nil)

	es := db.Essentials(context.Background())
	ok, _ := es.NodeAdjacency(a, b)
	if !ok {
		t.Error("a,b share a hyperedge")
	}
	ok, _ = es.NodeAdjacency(a, d)
	if ok {
		t.Error("a,d share no hyperedge")
	}
	// Hyperedges sharing node c are adjacent.
	ok, _ = es.EdgeAdjacency(e1, e2)
	if !ok {
		t.Error("e1,e2 share c")
	}
	if _, err := es.EdgeAdjacency(e1, 99); err == nil {
		t.Error("missing hyperedge should error")
	}
}

func TestHyperAPI(t *testing.T) {
	var api engine.HyperAPI = openDB(t)
	a, err := api.AddNode("", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := api.AddNode("", nil)
	id, err := api.AddHyperEdge("e", []model.NodeID{a, b}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if api.Order() != 2 || api.Size() != 1 {
		t.Errorf("order=%d size=%d", api.Order(), api.Size())
	}
	n := 0
	if err := api.Incident(a, func(model.HyperEdge) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("incident = %d", n)
	}
	if err := api.RemoveHyperEdge(id); err != nil {
		t.Fatal(err)
	}
	if api.Size() != 0 {
		t.Errorf("size after remove = %d", api.Size())
	}
	nn := 0
	if err := api.Nodes(func(model.Node) bool { nn++; return true }); err != nil {
		t.Fatal(err)
	}
	ne := 0
	if err := api.HyperEdges(func(model.HyperEdge) bool { ne++; return true }); err != nil {
		t.Fatal(err)
	}
	if nn != 2 || ne != 0 {
		t.Errorf("nodes=%d hyperedges=%d", nn, ne)
	}
	if _, err := api.Node(a); err != nil {
		t.Error(err)
	}
	if _, err := api.HyperEdge(id); err == nil {
		t.Error("removed hyperedge should be gone")
	}
}

func TestPersistenceSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := New(engine.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	db.Schema().EnsureNodeType("P", model.Props("name", ""))
	a, _ := db.AddNode("P", model.Props("name", "a"))
	b, _ := db.AddNode("P", model.Props("name", "b"))
	db.AddHyperEdge("pair", []model.NodeID{a, b}, model.Props("w", 1))
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := New(engine.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Order() != 2 || db2.Size() != 1 {
		t.Fatalf("after reopen: order=%d size=%d", db2.Order(), db2.Size())
	}
	var e model.HyperEdge
	if err := db2.HyperEdges(func(he model.HyperEdge) bool { e = he; return false }); err != nil {
		t.Fatal(err)
	}
	if e.Label != "pair" || len(e.Members) != 2 {
		t.Errorf("reopened edge = %+v", e)
	}
	if v, _ := e.Props.Get("w").AsInt(); v != 1 {
		t.Errorf("reopened props = %v", e.Props)
	}
	// Ids continue after a reopen: new atoms must not clobber old ones.
	db2.Schema().EnsureNodeType("Q", nil)
	if _, err := db2.AddNode("Q", nil); err != nil {
		t.Fatal(err)
	}
	db2.Flush()
	db2.Close()
	db3, err := New(engine.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if db3.Order() != 3 {
		t.Errorf("order after second reopen = %d (atom clobbered?)", db3.Order())
	}
}

// TestRefusesAtomLogFormat: a store written in the retired atom-log format
// must fail to open, naming the format, not open as an empty hypergraph.
func TestRefusesAtomLogFormat(t *testing.T) {
	dir := t.TempDir()
	d, err := kv.OpenDisk(filepath.Join(dir, "hyperdb.pg"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put([]byte("a!0000000000000001"), []byte{1, 'P', 0}); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	db, err := New(engine.Options{Dir: dir})
	if err == nil {
		db.Close()
		t.Fatal("opened a store in the atom-log format")
	}
	if !strings.Contains(err.Error(), "atom-log format") {
		t.Errorf("open error = %v, want it to name the atom-log format", err)
	}
}
