package propcore

import (
	"errors"
	"testing"

	"gdbm/internal/algo/algotest"
	"gdbm/internal/index"
	"gdbm/internal/memgraph"
	"gdbm/internal/model"
)

// TestRemoveNodePropagatesScanError pins the fix for a swallowed-iterator
// bug: RemoveNode scans incident edges to drop their index entries before
// the storage cascade, and used to ignore the scan's error — a failed scan
// proceeded to delete the node, stranding index entries for its edges.
func TestRemoveNodePropagatesScanError(t *testing.T) {
	mg := memgraph.New()
	flaky := algotest.NewFlakyMutable(mg, 0)
	c := New(flaky)
	// Build through the unwrapped graph so setup consumes no budget.
	a, err := mg.AddNode("V", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mg.AddNode("V", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mg.AddEdge("e", a, b, nil); err != nil {
		t.Fatal(err)
	}

	err = c.RemoveNode(a)
	if !errors.Is(err, algotest.ErrInjected) {
		t.Fatalf("RemoveNode over a failing scan = %v, want ErrInjected", err)
	}
	if _, err := mg.Node(a); err != nil {
		t.Fatalf("node was removed despite the failed incident-edge scan: %v", err)
	}
	if _, err := mg.Edge(model.EdgeID(1)); err != nil {
		t.Fatalf("edge was removed despite the failed incident-edge scan: %v", err)
	}
}

// TestAcquireViewRefusesUnpinnableStore pins the snapshot contract's failure
// mode: over a storage graph that is not a model.Pinner the core reports an
// error and hands out no graph — never the live mutable store posing as a
// frozen view — while a pinning store is delegated to.
func TestAcquireViewRefusesUnpinnableStore(t *testing.T) {
	mg := memgraph.New()
	if g, release, err := New(algotest.NewFlakyMutable(mg, 0)).AcquireView(); err == nil || g != nil || release != nil {
		t.Fatalf("AcquireView over an unpinnable store = (%v, release set: %v, %v), want an error and nothing else", g, release != nil, err)
	}
	g, release, err := New(mg).AcquireView()
	if err != nil {
		t.Fatalf("AcquireView over memgraph: %v", err)
	}
	defer release()
	if g == nil {
		t.Fatal("AcquireView over memgraph returned no view")
	}
}

// TestIndexStoredNodes: the open-time rebuild indexes every node already in
// the store, and a failed scan surfaces instead of leaving a partial index.
func TestIndexStoredNodes(t *testing.T) {
	mg := memgraph.New()
	for _, label := range []string{"A", "A", "B"} {
		if _, err := mg.AddNode(label, nil); err != nil {
			t.Fatal(err)
		}
	}
	c := New(mg)
	if _, err := c.Idx.Create(index.Nodes, "", index.KindHash); err != nil {
		t.Fatal(err)
	}
	if err := c.IndexStoredNodes(); err != nil {
		t.Fatal(err)
	}
	n := 0
	if handled, err := c.IndexedNodes("A", "", model.Null(), func(model.Node) bool { n++; return true }); err != nil || !handled || n != 2 {
		t.Errorf("label lookup after rebuild: handled=%v n=%d err=%v", handled, n, err)
	}

	if err := New(algotest.NewFlakyMutable(mg, 0)).IndexStoredNodes(); !errors.Is(err, algotest.ErrInjected) {
		t.Errorf("rebuild over a failing scan = %v, want ErrInjected", err)
	}
}
