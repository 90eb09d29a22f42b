package stats_test

import (
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gdbm/internal/memgraph"
	"gdbm/internal/model"
	"gdbm/internal/query/stats"
)

func buildGraph(t *testing.T, nodes int) (*memgraph.Graph, []model.NodeID) {
	t.Helper()
	g := memgraph.New()
	labels := []string{"person", "place", "thing"}
	ids := make([]model.NodeID, 0, nodes)
	for i := 0; i < nodes; i++ {
		id, err := g.AddNode(labels[i%len(labels)], model.Props("rank", i%7))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := 1; i < nodes; i++ {
		if _, err := g.AddEdge("knows", ids[i], ids[i/2], nil); err != nil {
			t.Fatal(err)
		}
	}
	return g, ids
}

func TestBuildCounts(t *testing.T) {
	g, _ := buildGraph(t, 30)
	s, err := stats.Build(g, g.Epoch())
	if err != nil {
		t.Fatal(err)
	}
	if s.Nodes != 30 || s.Edges != 29 {
		t.Fatalf("counts = %d nodes %d edges", s.Nodes, s.Edges)
	}
	if s.NodeLabel["person"] != 10 || s.NodeLabel["place"] != 10 || s.NodeLabel["thing"] != 10 {
		t.Fatalf("label histogram = %v", s.NodeLabel)
	}
	if s.EdgeLabel["knows"] != 29 {
		t.Fatalf("edge histogram = %v", s.EdgeLabel)
	}
	if got := s.CountNodes("person"); got != 10 {
		t.Errorf("CountNodes(person) = %v", got)
	}
	if got := s.CountNodes(""); got != 30 {
		t.Errorf("CountNodes() = %v", got)
	}
	// Fanout: 29 knows edges over 30 nodes, doubled for Both.
	if got := s.Fanout("knows", model.Out); math.Abs(got-29.0/30) > 1e-9 {
		t.Errorf("Fanout(knows, Out) = %v", got)
	}
	if got := s.Fanout("knows", model.Both); math.Abs(got-2*29.0/30) > 1e-9 {
		t.Errorf("Fanout(knows, Both) = %v", got)
	}
	if got := s.Fanout("ghost", model.Out); got != 0 {
		t.Errorf("Fanout(ghost) = %v", got)
	}
}

func TestPropSelectivity(t *testing.T) {
	g, _ := buildGraph(t, 70)
	s, err := stats.Build(g, g.Epoch())
	if err != nil {
		t.Fatal(err)
	}
	// rank takes 7 distinct values; below sketch saturation this is exact.
	if d := 1 / s.PropSelectivity("", "rank"); d != 7 {
		t.Fatalf("distinct values of rank = %v, want 7", d)
	}
	if got := s.PropSelectivity("", "rank"); math.Abs(got-1.0/7) > 1e-9 {
		t.Errorf("PropSelectivity(rank) = %v", got)
	}
	// A never-seen property matches at most one node.
	if got := s.PropSelectivity("person", "ghost"); math.Abs(got-1.0/float64(s.NodeLabel["person"])) > 1e-9 {
		t.Errorf("PropSelectivity(ghost) = %v", got)
	}
	// A label with no nodes clamps to 1.
	if got := s.PropSelectivity("ghost", "rank"); got != 1 {
		t.Errorf("PropSelectivity(ghost label) = %v", got)
	}
}

func TestDegreeHistogram(t *testing.T) {
	g, _ := buildGraph(t, 40)
	s, err := stats.Build(g, g.Epoch())
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range s.DegHist {
		total += c
	}
	if total != s.Nodes {
		t.Fatalf("degree histogram counts %d nodes, have %d", total, s.Nodes)
	}
}

// TestVersionedEpochKeying holds TryGet to the drift rule: statistics are
// served while the mutations since their epoch, (epoch - st.Epoch)/2, are
// at most (st.Nodes + st.Edges)/16.
func TestVersionedEpochKeying(t *testing.T) {
	var v stats.Versioned
	if got := v.TryGet(0); got != nil {
		t.Fatal("empty Versioned served stats")
	}
	st := &stats.Stats{Epoch: 100, Nodes: 100, Edges: 60} // bound: 10 mutations
	v.Publish(st)
	for _, c := range []struct {
		epoch uint64
		serve bool
		what  string
	}{
		{100, true, "the same epoch"},
		{98, true, "an epoch read before the stamp"},
		{102, true, "one mutation"},
		{120, true, "10 mutations, at the bound"},
		{121, true, "an 11th mutation in flight"},
		{122, false, "11 mutations, just past the bound"},
		{123, false, "a 12th mutation in flight"},
		{1 << 40, false, "far past the bound"},
	} {
		if got := v.TryGet(c.epoch); (got == st) != c.serve {
			t.Errorf("TryGet(%d), %s: served=%v, want %v", c.epoch, c.what, got == st, c.serve)
		}
	}
	// Publish never regresses to an older epoch.
	v.Publish(&stats.Stats{Epoch: st.Epoch - 2})
	if got := v.TryGet(st.Epoch); got != st {
		t.Fatal("older publish displaced newer stats")
	}
	// Fewer than 16 elements: the bound is 0, so every mutation rebuilds.
	var small stats.Versioned
	few := &stats.Stats{Epoch: 10, Nodes: 10, Edges: 5}
	small.Publish(few)
	if small.TryGet(10) != few || small.TryGet(11) != few || small.TryGet(12) != nil {
		t.Error("a graph of 15 elements: want served at its epoch and mid-mutation, refused after one mutation")
	}
	// A wholesale replacement at epoch 105 refuses everything stamped before.
	v.Invalidate(105)
	if got := v.TryGet(106); got != nil {
		t.Fatal("invalidated stats served")
	}
	fresh := &stats.Stats{Epoch: 106}
	v.Publish(fresh)
	if got := v.TryGet(106); got != fresh {
		t.Fatal("stats stamped after the invalidation not served")
	}
}

// TestVersionedGet: Get builds from the live graph, stamped with the epoch
// read before the scan (an odd one rounds down), serves the result inside
// the bound, and rebuilds at the first mutation past it.
func TestVersionedGet(t *testing.T) {
	g, ids := buildGraph(t, 40) // 79 elements: the bound is 4 mutations
	var v stats.Versioned
	st, err := v.Get(g, func() uint64 { return g.Epoch() + 1 })
	if err != nil {
		t.Fatal(err)
	}
	want, err := stats.Build(g, g.Epoch())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, want) {
		t.Fatalf("Get at an odd epoch = %+v, want Build at the stable one before it: %+v", st, want)
	}
	for i := 0; i < 4; i++ {
		if err := g.SetNodeProp(ids[i], "rank", model.Int(99)); err != nil {
			t.Fatal(err)
		}
		if got, err := v.Get(g, g.Epoch); err != nil || got != st {
			t.Fatalf("mutation %d of 4: Get rebuilt inside the bound (%v)", i+1, err)
		}
	}
	if err := g.SetNodeProp(ids[4], "rank", model.Int(99)); err != nil {
		t.Fatal(err)
	}
	got, err := v.Get(g, g.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if got == st || got.Epoch != g.Epoch() {
		t.Fatalf("5th mutation: served epoch %d, want a rebuild at %d", got.Epoch, g.Epoch())
	}
}

// scanCounter is a graph whose Nodes scan records how many run at once.
type scanCounter struct {
	model.Graph
	running, most atomic.Int32
}

func (c *scanCounter) Nodes(fn func(model.Node) bool) error {
	n := c.running.Add(1)
	defer c.running.Add(-1)
	for m := c.most.Load(); n > m && !c.most.CompareAndSwap(m, n); m = c.most.Load() {
	}
	time.Sleep(time.Millisecond)
	return c.Graph.Nodes(fn)
}

// TestVersionedGetRebuildsOneAtATime: concurrent callers that all find the
// statistics past the bound never scan the store at the same time.
func TestVersionedGetRebuildsOneAtATime(t *testing.T) {
	g, _ := buildGraph(t, 20)
	c := &scanCounter{Graph: g}
	var v stats.Versioned
	var epoch atomic.Uint64
	next := func() uint64 { return epoch.Add(1 << 20) } // every read is far past the bound
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := v.Get(c, next); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if m := c.most.Load(); m != 1 {
		t.Fatalf("%d rebuilds scanned at once, want 1", m)
	}
}
