package infinigraph

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"gdbm/internal/algo"
	"gdbm/internal/engine"
	"gdbm/internal/gen"
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

func TestShardingDistributesNodes(t *testing.T) {
	db := openDB(t)
	if db.Partitions() != 4 {
		t.Fatalf("partitions = %d", db.Partitions())
	}
	counts := make([]int, db.Partitions())
	for i := 0; i < 200; i++ {
		id, _ := db.LoadNode("N", nil)
		counts[shardOf(id)]++
	}
	// Every shard should hold a reasonable share.
	for i, n := range counts {
		if n < 20 {
			t.Errorf("shard %d holds only %d nodes", i, n)
		}
	}
}

func TestCrossShardTraversal(t *testing.T) {
	db := openDB(t)
	ids, err := gen.Generate(gen.Spec{Kind: gen.ER, Nodes: 100, EdgesPerNode: 3, Seed: 11}, db)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := db.CrossEdges(); err != nil || n == 0 {
		t.Fatal("expected cross-shard edges in a random graph")
	}
	// BFS spans shards transparently.
	count := 0
	if err := algo.BFS(db, ids[0], model.Both, func(model.NodeID, int) bool {
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count < 50 {
		t.Errorf("BFS reached only %d nodes", count)
	}
}

func TestCrossEdgeAccounting(t *testing.T) {
	db := openDB(t)
	db.Schema().EnsureNodeType("N", nil)
	db.Schema().EnsureRelationType("x", nil)
	// Find two nodes on different shards.
	var a, b model.NodeID
	found := false
	for i := 0; i < 50 && !found; i++ {
		id, err := db.AddNode("N", nil)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			a = id
			continue
		}
		if shardOf(id) != shardOf(a) {
			b, found = id, true
		}
	}
	if !found {
		t.Fatal("50 nodes all placed on one shard")
	}
	crossEdges := func() int {
		t.Helper()
		n, err := db.CrossEdges()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	before := crossEdges()
	eid, err := db.AddEdge("x", a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := crossEdges(); n != before+1 {
		t.Errorf("cross edges = %d, want %d", n, before+1)
	}
	if err := db.RemoveEdge(eid); err != nil {
		t.Fatal(err)
	}
	if n := crossEdges(); n != before {
		t.Errorf("cross edges after remove = %d", n)
	}
}

func TestGraphSemantics(t *testing.T) {
	db := openDB(t)
	db.Schema().EnsureNodeType("P", model.Props("name", "", "age", 0))
	db.Schema().EnsureRelationType("knows", model.Props("since", 0))
	a, _ := db.AddNode("P", model.Props("name", "ada"))
	b, _ := db.AddNode("P", nil)
	eid, _ := db.AddEdge("knows", a, b, model.Props("since", 2019))
	if db.Order() != 2 || db.Size() != 1 {
		t.Fatalf("order=%d size=%d", db.Order(), db.Size())
	}
	n, err := db.Node(a)
	if err != nil || n.Label != "P" {
		t.Fatalf("Node: %+v %v", n, err)
	}
	e, err := db.Edge(eid)
	if err != nil || e.From != a {
		t.Fatalf("Edge: %+v %v", e, err)
	}
	if err := db.SetNodeProp(a, "age", model.Int(3)); err != nil {
		t.Fatal(err)
	}
	if err := db.SetEdgeProp(eid, "w", model.Float(1)); err != nil {
		t.Fatal(err)
	}
	d, _ := db.Degree(a, model.Out)
	if d != 1 {
		t.Errorf("degree = %d", d)
	}
	if err := db.RemoveNode(a); err != nil {
		t.Fatal(err)
	}
	if db.Order() != 1 || db.Size() != 0 {
		t.Errorf("cascade failed: order=%d size=%d", db.Order(), db.Size())
	}
	if _, err := db.Node(a); !errors.Is(err, model.ErrNotFound) {
		t.Errorf("removed node: %v", err)
	}
	if err := db.RemoveEdge(99); !errors.Is(err, model.ErrNotFound) {
		t.Errorf("missing edge: %v", err)
	}
}

func TestTypesCheckingAndIdentity(t *testing.T) {
	db := openDB(t)
	db.Schema().EnsureNodeType("T", model.Props("name", ""))
	db.AddIdentity("T", "name")
	if _, err := db.AddNode("T", model.Props("name", "x")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddNode("T", model.Props("name", "x")); !errors.Is(err, model.ErrConstraint) {
		t.Errorf("identity: %v", err)
	}
	if _, err := db.AddNode("Nope", nil); !errors.Is(err, model.ErrConstraint) {
		t.Errorf("undeclared type: %v", err)
	}
}

func TestIndexedNodesViaLabelIndex(t *testing.T) {
	db := openDB(t)
	db.Schema().EnsureNodeType("A", nil)
	db.Schema().EnsureNodeType("B", nil)
	db.AddNode("A", nil)
	db.AddNode("A", nil)
	db.AddNode("B", nil)
	n := 0
	handled, err := db.IndexedNodes("A", "", model.Null(), func(model.Node) bool { n++; return true })
	if err != nil || !handled || n != 2 {
		t.Errorf("indexed lookup: handled=%v n=%d err=%v", handled, n, err)
	}
}

// TestDiskReopenPageTierOnly runs the disk configuration: CacheBytes funds
// the page cache alone, so it is the one tier reported, and a flushed graph
// gives the same essential answers after a reopen.
func TestDiskReopenPageTierOnly(t *testing.T) {
	dir := t.TempDir()
	open := func() *DB {
		t.Helper()
		db, err := New(engine.Options{Dir: dir, CacheBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := open()
	ids, err := gen.Generate(gen.Spec{Kind: gen.ER, Nodes: 60, EdgesPerNode: 2, Seed: 5}, db)
	if err != nil {
		t.Fatal(err)
	}
	answers := func(db *DB) string {
		t.Helper()
		es := db.Essentials(context.Background())
		hood, err := es.KNeighborhood(ids[0], 2)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := es.Summarization(algo.AggSum, "", "idx")
		if err != nil {
			t.Fatal(err)
		}
		adj, err := es.NodeAdjacency(ids[0], ids[1])
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(len(hood), sum, adj)
	}
	before := answers(db)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = open()
	defer db.Close()
	if got := answers(db); got != before {
		t.Fatalf("after reopen: %s, before: %s", got, before)
	}
	tiers := db.CacheStats()
	if s, ok := tiers["page"]; !ok || len(tiers) != 1 || s.BudgetBytes == 0 {
		t.Fatalf("cache tiers %+v, want the page tier alone, funded", tiers)
	}
}
