package kvgraph

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"gdbm/internal/engines/propcore"
	"gdbm/internal/index"
	"gdbm/internal/model"
	"gdbm/internal/query/gql"
	"gdbm/internal/query/plan"
	"gdbm/internal/storage/kv"
)

// TestAcquireViewPinsDrain mirrors the memgraph release-discipline test
// over the kv-layered store: the first pin builds the mirror, a warm pin
// returns the same view, the release is idempotent, and a mutation
// retires the view without changing it.
func TestAcquireViewPinsDrain(t *testing.T) {
	g := New(kv.NewMemory())
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

	v1, rel1, err := g.AcquireView()
	if err != nil {
		t.Fatal(err)
	}
	v2, rel2, err := g.AcquireView()
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Fatal("warm AcquireView froze a new view instead of returning the one it froze")
	}
	rel1()
	rel1() // idempotent
	rel2()

	if err := g.RemoveEdge(model.EdgeID(1)); err != nil {
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
	if v3.Size() != 0 || v1.Size() != 1 {
		t.Fatalf("sizes after removal: new=%d old=%d, want 0/1", v3.Size(), v1.Size())
	}
}

// TestRejectedMutationInvalidatesNothing: a mutation that fails validation
// changes nothing, so it must leave the epoch, the pinned view and the
// published statistics exactly as reachable as they were.
func TestRejectedMutationInvalidatesNothing(t *testing.T) {
	g := New(kv.NewMemory())
	n1, err := g.AddNode("P", nil)
	if err != nil {
		t.Fatal(err)
	}
	view, release, err := g.AcquireView() // builds the mirror
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
		t.Error("rejected mutations retired the pinned view")
	}
}

// TestPlanningRendersNoView: loading, indexing, planner statistics, a
// compiled query and a write leave the graph without a mirror, in memory
// and on disk; the first AcquireView builds one, and the next write lands
// in the next view and leaves that one as it was.
func TestPlanningRendersNoView(t *testing.T) {
	disk, err := kv.OpenDisk(filepath.Join(t.TempDir(), "plan.pg"), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	t.Run("mem", func(t *testing.T) { planningRendersNoView(t, New(kv.NewMemory())) })
	t.Run("disk", func(t *testing.T) { planningRendersNoView(t, New(disk)) })
}

func planningRendersNoView(t *testing.T, g *Graph) {
	c := propcore.New(g)
	noView := func(stage string) {
		t.Helper()
		if g.mirror != nil {
			t.Fatalf("%s built the mirror", stage)
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
	if g.mirror == nil {
		t.Fatal("AcquireView built no mirror")
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

// putFails fails every Put of a key that starts with prefix, while set.
type putFails struct {
	kv.Store
	prefix string
}

var errPut = errors.New("put failed")

func (s *putFails) Put(key, val []byte) error {
	if s.prefix != "" && strings.HasPrefix(string(key), s.prefix) {
		return errPut
	}
	return s.Store.Put(key, val)
}

// TestFailedWriteDropsMirror: a mutation that fails after its validation
// drops the mirror, and a view pinned before it stays as it was. The next
// pin rebuilds the mirror from what the store holds, and refuses a store
// whose adjacency entries a half-written edge left disagreeing with its
// edge records.
func TestFailedWriteDropsMirror(t *testing.T) {
	st := &putFails{Store: kv.NewMemory()}
	g := New(st)
	a, _ := g.AddNode("N", model.Props("k", 1))
	b, _ := g.AddNode("N", nil)
	before, release, err := g.AcquireView()
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	st.prefix = "n!"
	if err := g.SetNodeProp(a, "k", model.Int(2)); !errors.Is(err, errPut) {
		t.Fatalf("SetNodeProp: err = %v, want the failed put", err)
	}
	st.prefix = ""
	if g.mirror != nil {
		t.Fatal("a failed mutation kept the mirror")
	}
	rebuilt, release2, err := g.AcquireView()
	if err != nil {
		t.Fatal(err)
	}
	defer release2()
	if n, _ := rebuilt.Node(a); !n.Props.Equal(model.Props("k", 1)) || rebuilt == before {
		t.Fatalf("rebuilt view: node %d props %v, want the stored {k: 1}", a, n.Props)
	}

	st.prefix = "i!" // AddEdge writes the edge record and its out entry first
	if _, err := g.AddEdge("e", a, b, nil); !errors.Is(err, errPut) {
		t.Fatalf("AddEdge: err = %v, want the failed put", err)
	}
	st.prefix = ""
	if _, _, err := g.AcquireView(); err == nil {
		t.Fatal("pinned a store whose adjacency entries disagree with its edge records")
	}
	if before.Size() != 0 || rebuilt.Size() != 0 {
		t.Fatalf("views pinned before the failed write have %d and %d edges", before.Size(), rebuilt.Size())
	}
}
