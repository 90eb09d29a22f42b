package hyperdb

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"

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
	a, err := db.AddAtom("", model.Props("name", "a"))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := db.AddAtom("", nil)
	c, _ := db.AddAtom("", nil)
	link, err := db.AddLink("rel", []model.NodeID{a, b, c}, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := db.Hypergraph()
	if h.Order() != 3 || h.Size() != 1 {
		t.Fatalf("order=%d size=%d", h.Order(), h.Size())
	}
	e, _ := h.HyperEdge(link)
	if len(e.Members) != 3 {
		t.Errorf("members = %v", e.Members)
	}
}

func TestTypedAtomsAndIdentity(t *testing.T) {
	db := openDB(t)
	db.Schema().EnsureNodeType("Protein", model.Props("name", ""))
	db.SetIdentity("Protein", "name")
	if _, err := db.AddAtom("Protein", model.Props("name", "p53")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddAtom("Protein", model.Props("name", "p53")); !errors.Is(err, model.ErrConstraint) {
		t.Errorf("duplicate identity: %v", err)
	}
	if _, err := db.AddAtom("Protein", nil); !errors.Is(err, model.ErrConstraint) {
		t.Errorf("missing identity prop: %v", err)
	}
	if _, err := db.AddAtom("Ghost", nil); !errors.Is(err, model.ErrConstraint) {
		t.Errorf("undeclared type: %v", err)
	}
}

func TestEssentialsHyperSemantics(t *testing.T) {
	db := openDB(t)
	a, _ := db.AddAtom("", nil)
	b, _ := db.AddAtom("", nil)
	c, _ := db.AddAtom("", nil)
	d, _ := db.AddAtom("", nil)
	e1, _ := db.AddLink("x", []model.NodeID{a, b, c}, nil)
	e2, _ := db.AddLink("y", []model.NodeID{c, d}, nil)

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

func TestHyperAPIOf(t *testing.T) {
	db := openDB(t)
	api := db.HyperAPIOf()
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
	api.Incident(a, func(model.HyperEdge) bool { n++; return true })
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
	api.Nodes(func(model.Node) bool { nn++; return true })
	ne := 0
	api.HyperEdges(func(model.HyperEdge) bool { ne++; return true })
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

func TestPersistenceReplaysAtomLog(t *testing.T) {
	dir := t.TempDir()
	db, err := New(engine.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	db.Schema().EnsureNodeType("P", model.Props("name", ""))
	a, _ := db.AddAtom("P", model.Props("name", "a"))
	b, _ := db.AddAtom("P", model.Props("name", "b"))
	db.AddLink("pair", []model.NodeID{a, b}, model.Props("w", 1))
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
	h := db2.Hypergraph()
	if h.Order() != 2 || h.Size() != 1 {
		t.Fatalf("after reopen: order=%d size=%d", h.Order(), h.Size())
	}
	var e model.HyperEdge
	h.HyperEdges(func(he model.HyperEdge) bool { e = he; return false })
	if e.Label != "pair" || len(e.Members) != 2 {
		t.Errorf("replayed edge = %+v", e)
	}
	if v, _ := e.Props.Get("w").AsInt(); v != 1 {
		t.Errorf("replayed props = %v", e.Props)
	}
	// The log sequence continues: new atoms must not clobber old entries.
	db2.Schema().EnsureNodeType("Q", nil)
	if _, err := db2.AddAtom("Q", nil); err != nil {
		t.Fatal(err)
	}
	db2.Flush()
	db2.Close()
	db3, err := New(engine.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if db3.Hypergraph().Order() != 3 {
		t.Errorf("order after second reopen = %d (log clobbered?)", db3.Hypergraph().Order())
	}
}

// TestReplayRefusesCorruptAtom: a log value that does not decode must fail
// the reopen; skipping it would shift every later atom's id.
func TestReplayRefusesCorruptAtom(t *testing.T) {
	dir := t.TempDir()
	db, err := New(engine.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		if _, err := db.LoadNode("P", model.Props("name", name)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	d, err := kv.OpenDisk(filepath.Join(dir, "hyperdb.pg"), 0)
	if err != nil {
		t.Fatal(err)
	}
	key := "a!0000000000000001"
	truncated := encodeAtom("P", nil, model.Props("name", "a"))[:1]
	if err := d.Put([]byte(key), truncated); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := New(engine.Options{Dir: dir})
	if err == nil {
		db2.Close()
		t.Fatal("reopen over a truncated atom succeeded")
	}
	if !strings.Contains(err.Error(), "hyperdb: corrupt atom "+key) {
		t.Errorf("reopen error = %v", err)
	}
}

func TestAtomLogEncoding(t *testing.T) {
	enc := encodeAtom("label", []model.NodeID{3, 7}, model.Props("k", 1))
	rec, err := decodeAtom(enc)
	if err != nil {
		t.Fatal(err)
	}
	if rec.label != "label" || len(rec.members) != 2 || rec.members[1] != 7 {
		t.Errorf("decoded = %+v", rec)
	}
	if v, _ := rec.props.Get("k").AsInt(); v != 1 {
		t.Errorf("props = %v", rec.props)
	}
	// Truncated inputs fail cleanly.
	for i := 0; i < len(enc)-1; i++ {
		if _, err := decodeAtom(enc[:i]); err == nil {
			// Some prefixes decode as shorter valid atoms (empty label,
			// zero members, empty props); only structural truncation must
			// error, so just ensure no panic occurred.
			continue
		}
	}
}
