package memgraph

import (
	"context"
	"errors"
	"testing"

	"gdbm/internal/engines/propcore"
	"gdbm/internal/index"
	"gdbm/internal/model"
	"gdbm/internal/query/gql"
	"gdbm/internal/query/plan"
)

// TestAcquireViewPinsDrain is the release-discipline regression test for
// the closeleak ReleaseFunc sweep: every acquire path (the first freeze and
// the warm lock-free return) hands back a release that is idempotent, and
// a warm acquire returns the view it froze rather than freezing again.
func TestAcquireViewPinsDrain(t *testing.T) {
	g := New()
	n1, err := g.AddNode("P", model.Props("rank", 1))
	if err != nil {
		t.Fatal(err)
	}
	n2, err := g.AddNode("P", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge("knows", n1, n2, nil); err != nil {
		t.Fatal(err)
	}

	v1, rel1, err := g.AcquireView() // cold: freezes the records
	if err != nil {
		t.Fatal(err)
	}
	v2, rel2, err := g.AcquireView() // warm: the same view, lock-free
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Fatal("warm AcquireView froze a new view instead of returning the one it froze")
	}
	rel1()
	rel1() // idempotent
	rel2()

	// A mutation retires the frozen view; the next acquire freezes the new
	// epoch and the old view stays intact.
	if _, err := g.AddNode("P", nil); err != nil {
		t.Fatal(err)
	}
	v3, rel3, err := g.AcquireView()
	if err != nil {
		t.Fatal(err)
	}
	defer rel3()
	if v3 == v1 {
		t.Fatal("AcquireView returned a stale view after a mutation")
	}
	if v3.Order() != 3 || v1.Order() != 2 {
		t.Fatalf("orders after mutation: new=%d old=%d, want 3/2", v3.Order(), v1.Order())
	}
}

// TestRejectedMutationInvalidatesNothing: a mutation that fails validation
// changes nothing, so it must leave the epoch, the frozen view and the
// published statistics exactly as reachable as they were.
func TestRejectedMutationInvalidatesNothing(t *testing.T) {
	g := New()
	n1, err := g.AddNode("P", nil)
	if err != nil {
		t.Fatal(err)
	}
	view, release, err := g.AcquireView() // freezes the view
	if err != nil {
		t.Fatal(err)
	}
	release()
	if _, err := g.PlanStats(); err != nil { // publishes the statistics
		t.Fatal(err)
	}
	epoch, st := g.Epoch(), g.stats.TryGet(g.Epoch())
	if st == nil {
		t.Fatal("no statistics published")
	}
	const ghost = 99
	rejected := map[string]error{
		"SetNodeProp": g.SetNodeProp(ghost, "k", model.Int(1)),
		"SetEdgeProp": g.SetEdgeProp(ghost, "k", model.Int(1)),
		"RemoveNode":  g.RemoveNode(ghost),
		"RemoveEdge":  g.RemoveEdge(ghost),
	}
	_, rejected["AddEdge from"] = g.AddEdge("e", ghost, n1, nil)
	_, rejected["AddEdge to"] = g.AddEdge("e", n1, ghost, nil)
	for op, err := range rejected {
		if !errors.Is(err, model.ErrNotFound) {
			t.Errorf("%s on a missing target: %v, want ErrNotFound", op, err)
		}
	}
	if g.Epoch() != epoch {
		t.Errorf("rejected mutations moved the epoch %d -> %d", epoch, g.Epoch())
	}
	if g.stats.TryGet(g.Epoch()) != st {
		t.Error("rejected mutations made the published statistics unreachable")
	}
	again, release, err := g.AcquireView()
	if err != nil {
		t.Fatal(err)
	}
	release()
	if again != view {
		t.Error("rejected mutations retired the frozen view")
	}
}

// TestPlanningRendersNoView: loading, indexing, planner statistics, a
// compiled query and a write leave the graph without a frozen view, so
// their writes never clone a block; the first AcquireView freezes one, and
// the next write lands in the next view and leaves that one as it was.
func TestPlanningRendersNoView(t *testing.T) {
	g := New()
	c := propcore.New(g)
	noView := func(stage string) {
		t.Helper()
		if g.pinned.Load() != nil {
			t.Fatalf("%s froze a view", stage)
		}
	}
	var prev model.NodeID
	for i := 0; i < 40; i++ {
		id, err := c.LoadNode("P", model.Props("idx", i))
		if err != nil {
			t.Fatal(err)
		}
		if prev != 0 {
			if _, err := c.LoadEdge("e", prev, id, nil); err != nil {
				t.Fatal(err)
			}
		}
		prev = id
	}
	noView("loading")
	if _, err := c.Idx.Create(index.Nodes, "idx", index.KindHash); err != nil {
		t.Fatal(err)
	}
	if err := c.IndexStoredNodes(); err != nil {
		t.Fatal(err)
	}
	noView("CreateIndex")
	if st, err := c.PlanStats(); err != nil || st == nil {
		t.Fatalf("PlanStats = %v, %v", st, err)
	}
	noView("PlanStats")
	var res plan.Collector
	if err := gql.ExecStreamCtx(context.Background(), "MATCH (a:P {idx: 3})-[:e]->(b) RETURN b.idx", c, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Res.Rows) != 1 || res.Res.Rows[0][0] != model.Int(4) {
		t.Fatalf("query rows = %v, want [[4]]", res.Res.Rows)
	}
	noView("a compiled query")
	if err := gql.ExecStreamCtx(context.Background(), "MATCH (a:P {idx: 3}) SET a.w = 1", c, &plan.Collector{}); err != nil {
		t.Fatal(err)
	}
	noView("a write")

	view, release, err := g.AcquireView()
	if err != nil {
		t.Fatal(err)
	}
	release()
	snap := view
	if g.pinned.Load() != snap {
		t.Fatal("AcquireView did not keep the view it froze")
	}
	if err := c.SetNodeProp(4, "w", model.Int(2)); err != nil {
		t.Fatal(err)
	}
	next, release, err := g.AcquireView()
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if n, _ := next.Node(4); next == view || n.Props["w"] != model.Int(2) {
		t.Fatalf("the write after the first pin is not in the next view: %+v", n)
	}
	if n, _ := snap.Node(4); n.Props["w"] != model.Int(1) {
		t.Fatalf("the pinned view changed under a write: %+v", n)
	}
}
