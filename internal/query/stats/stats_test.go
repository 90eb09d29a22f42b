package stats_test

import (
	"math"
	"testing"

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

func TestVersionedEpochKeying(t *testing.T) {
	g, ids := buildGraph(t, 12)
	var v stats.Versioned
	epoch := g.Epoch()
	if got := v.TryGet(epoch); got != nil {
		t.Fatal("empty Versioned served stats")
	}
	s, err := stats.Build(g, epoch)
	if err != nil {
		t.Fatal(err)
	}
	v.Publish(s)
	if got := v.TryGet(epoch); got != s {
		t.Fatal("published stats not served for their epoch")
	}
	// Any mutation double-bumps the epoch: the old stats must be
	// unreachable through TryGet even though still published.
	if err := g.SetNodeProp(ids[0], "rank", model.Int(99)); err != nil {
		t.Fatal(err)
	}
	if got := v.TryGet(g.Epoch()); got != nil {
		t.Fatal("stale stats served after mutation")
	}
	// Odd (mid-mutation) epochs never serve.
	if got := v.TryGet(epoch | 1); got != nil {
		t.Fatal("stats served for an odd epoch")
	}
	// Publish never regresses to an older epoch.
	old := &stats.Stats{Epoch: s.Epoch - 2}
	v.Publish(old)
	if got := v.TryGet(s.Epoch); got != s {
		t.Fatal("older publish displaced newer stats")
	}
}
