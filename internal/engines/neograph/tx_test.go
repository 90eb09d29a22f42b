package neograph

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"gdbm/internal/engine"
	"gdbm/internal/index"
	"gdbm/internal/memgraph"
	"gdbm/internal/model"
)

func TestTransactionalUpdateCommits(t *testing.T) {
	db := openDB(t)
	err := db.Update(func() error {
		a, err := db.AddNode("P", model.Props("name", "ada"))
		if err != nil {
			return err
		}
		b, err := db.AddNode("P", model.Props("name", "bob"))
		if err != nil {
			return err
		}
		_, err = db.AddEdge("knows", a, b, nil)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if db.Order() != 2 || db.Size() != 1 {
		t.Errorf("after commit: order=%d size=%d", db.Order(), db.Size())
	}
}

func TestTransactionalUpdateRollsBack(t *testing.T) {
	db := openDB(t)
	keeper, _ := db.AddNode("P", model.Props("name", "keeper"))
	err := db.Update(func() error {
		db.AddNode("P", model.Props("name", "doomed1"))
		db.AddNode("P", model.Props("name", "doomed2"))
		db.SetNodeProp(keeper, "name", model.Str("mutated"))
		return fmt.Errorf("business rule failed")
	})
	if err == nil {
		t.Fatal("Update should surface fn's error")
	}
	if db.Order() != 1 {
		t.Errorf("order after rollback = %d", db.Order())
	}
	n, _ := db.Node(keeper)
	if v, _ := n.Props.Get("name").AsString(); v != "keeper" {
		t.Errorf("property mutation not rolled back: %v", n.Props)
	}
	// The engine stays usable.
	if _, err := db.AddNode("P", model.Props("name", "after")); err != nil {
		t.Fatal(err)
	}
	if db.Order() != 2 {
		t.Errorf("order after new insert = %d", db.Order())
	}
}

func TestTransactionalRejectsDiskMode(t *testing.T) {
	db, err := New(engine.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Update(func() error { return nil }); err == nil {
		t.Error("disk-backed Update should refuse")
	}
}

func TestSnapshotIsDeep(t *testing.T) {
	g := memgraph.New()
	a, _ := g.AddNode("N", model.Props("k", 1))
	b, _ := g.AddNode("N", nil)
	g.AddEdge("e", a, b, nil)
	snap := g.Snapshot()
	// Mutate the original; the snapshot must be unaffected.
	g.SetNodeProp(a, "k", model.Int(99))
	g.AddNode("N", nil)
	g.RemoveEdge(1)
	if snap.Order() != 2 || snap.Size() != 1 {
		t.Errorf("snapshot drifted: order=%d size=%d", snap.Order(), snap.Size())
	}
	n, _ := snap.Node(a)
	if v, _ := n.Props.Get("k").AsInt(); v != 1 {
		t.Errorf("snapshot props drifted: %v", n.Props)
	}
	// Restore brings the original back.
	g.RestoreFrom(snap)
	if g.Order() != 2 || g.Size() != 1 {
		t.Errorf("restore failed: order=%d size=%d", g.Order(), g.Size())
	}
	// ID allocation continues past every id issued, without collisions.
	id, _ := g.AddNode("N", nil)
	if _, err := g.Node(id); err != nil {
		t.Fatal(err)
	}
}

var _ engine.Transactional = (*DB)(nil)

// TestUpdateRollbackRestoresIndex: the property and label indexes follow
// every write inside Update, so a rollback must bring them back to the
// restored graph. Before, a node renamed inside a failed Update was found
// under its new name and not under the name its record kept.
func TestUpdateRollbackRestoresIndex(t *testing.T) {
	db := openDB(t)
	if err := db.CreateIndex("name"); err != nil {
		t.Fatal(err)
	}
	keeper, _ := db.AddNode("P", model.Props("name", "keeper"))
	err := db.Update(func() error {
		db.SetNodeProp(keeper, "name", model.Str("mutated"))
		db.AddNode("P", model.Props("name", "doomed"))
		db.AddNode("Q", model.Props("name", "keeper"))
		return fmt.Errorf("business rule failed")
	})
	if err == nil {
		t.Fatal("Update should surface fn's error")
	}
	for name, want := range map[string][]model.NodeID{"keeper": {keeper}, "mutated": nil, "doomed": nil} {
		var got []model.NodeID
		if _, err := db.IndexedNodes("", "name", model.Str(name), func(n model.Node) bool {
			got = append(got, n.ID)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("IndexedNodes(name = %q) = %v, want %v", name, got, want)
		}
		res, err := engine.QueryContext(context.Background(), db, fmt.Sprintf(`MATCH (p:P {name: '%s'}) RETURN p.name AS n`, name))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != len(want) {
			t.Errorf("gql lookup of %q = %v, want %d rows", name, res.Rows, len(want))
		}
		for _, row := range res.Rows {
			if fmt.Sprint(row[0]) != name {
				t.Errorf("gql lookup of %q returned a node named %v", name, row[0])
			}
		}
	}
	for label, want := range map[string]int{"P": 1, "Q": 0} {
		if idx, _ := db.Core.Idx.Get(index.Nodes, ""); idx.Count(model.Str(label)) != want {
			t.Errorf("label index holds %d ids under %q, want %d", idx.Count(model.Str(label)), label, want)
		}
	}
}
