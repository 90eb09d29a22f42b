package engine

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"gdbm/internal/algo"
	"gdbm/internal/memgraph"
	"gdbm/internal/model"
)

func TestReadOnlyStmt(t *testing.T) {
	for _, tc := range []struct {
		stmt  string
		verbs []string
		want  bool
	}{
		{"MATCH (a) RETURN a", []string{"MATCH"}, true},
		{"  match (a) RETURN a", []string{"MATCH"}, true},
		{"\tSelect ?x WHERE {}", []string{"SELECT", "ASK"}, true},
		{"ASK { ?s <p> ?o }", []string{"SELECT", "ASK"}, true},
		{"CREATE (a:N)", []string{"MATCH"}, false},
		{"MATCHES (a)", []string{"MATCH"}, false},
		{"", []string{"MATCH"}, false},
		{"   ", []string{"SELECT"}, false},
		{"SELECT ORDER", nil, false},
		// The first keyword alone decides: a MATCH that writes still reads
		// as read-only.
		{"MATCH (a) SET a.x = 1", []string{"MATCH"}, true},
	} {
		if got := ReadOnlyStmt(tc.stmt, tc.verbs...); got != tc.want {
			t.Errorf("ReadOnlyStmt(%q, %v) = %v, want %v", tc.stmt, tc.verbs, got, tc.want)
		}
	}
}

func TestDiskZeroValueIsInMemory(t *testing.T) {
	var d Disk
	if err := d.Flush(); err != nil {
		t.Fatalf("Flush on the zero Disk: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close on the zero Disk: %v", err)
	}
	if got := d.CacheStats(); got == nil || len(got) != 0 {
		t.Fatalf("CacheStats on the zero Disk = %#v, want an empty map", got)
	}
}

func TestOpenDiskSurvivesReopen(t *testing.T) {
	opts := Options{Dir: t.TempDir(), CacheBytes: 1 << 20}
	d, g, err := OpenDisk(opts, "t.pg")
	if err != nil {
		t.Fatal(err)
	}
	a, err := g.AddNode("N", model.Properties{"k": model.Int(7)})
	if err != nil {
		d.Close()
		t.Fatal(err)
	}
	if _, err := g.Node(a); err != nil {
		d.Close()
		t.Fatal(err)
	}
	tiers := d.CacheStats()
	if len(tiers) != 1 || tiers["page"].BudgetBytes != 1<<20 {
		d.Close()
		t.Fatalf("CacheStats = %+v, want one page tier with the whole 1 MiB budget", tiers)
	}
	if tiers["page"].Hits+tiers["page"].Misses == 0 {
		d.Close()
		t.Fatalf("the page tier saw no lookups: %+v", tiers["page"])
	}
	if err := d.Flush(); err != nil {
		d.Close()
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d, g, err = OpenDisk(opts, "t.pg")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	n, err := g.Node(a)
	if err != nil {
		t.Fatalf("node %d after reopen: %v", a, err)
	}
	if n.Label != "N" || !n.Props.Get("k").Equal(model.Int(7)) {
		t.Fatalf("node after reopen = %+v", n)
	}
}

func TestOpenDiskReportsOpenError(t *testing.T) {
	opts := Options{Dir: t.TempDir() + "/missing"}
	d, g, err := OpenDisk(opts, "t.pg")
	if err == nil {
		d.Close()
		t.Fatal("OpenDisk under a missing directory succeeded")
	}
	if g != nil || d != (Disk{}) {
		t.Fatalf("OpenDisk failed but returned %+v, %v", d, g)
	}
}

func TestTraversalEssentials(t *testing.T) {
	g := memgraph.New()
	a, _ := g.AddNode("N", model.Properties{"v": model.Int(1)})
	b, _ := g.AddNode("N", model.Properties{"v": model.Int(2)})
	c, _ := g.AddNode("M", nil)
	ab, _ := g.AddEdge("e", a, b, nil)
	bc, _ := g.AddEdge("e", b, c, nil)
	pins := 0
	es := TraversalEssentials(context.Background(), g, func() (model.Graph, model.ReleaseFunc, error) {
		pins++
		return g.AcquireView()
	})
	if ok, err := es.NodeAdjacency(a, b); err != nil || !ok {
		t.Fatalf("NodeAdjacency(a, b) = %v, %v", ok, err)
	}
	if ok, err := es.EdgeAdjacency(ab, bc); err != nil || !ok {
		t.Fatalf("EdgeAdjacency = %v, %v", ok, err)
	}
	if got, err := es.KNeighborhood(a, 2); err != nil || len(got) != 2 {
		t.Fatalf("KNeighborhood(a, 2) = %v, %v", got, err)
	}
	if ps, err := es.FixedLengthPaths(a, c, 2); err != nil || len(ps) != 1 {
		t.Fatalf("FixedLengthPaths = %v, %v", ps, err)
	}
	if p, err := es.ShortestPath(a, c); err != nil || !reflect.DeepEqual(p.Nodes, []model.NodeID{a, b, c}) {
		t.Fatalf("ShortestPath = %+v, %v", p, err)
	}
	if v, err := es.Summarization(algo.AggSum, "N", "v"); err != nil || !v.Equal(model.Int(3)) {
		t.Fatalf("Summarization = %v, %v", v, err)
	}
	if pins != 2 {
		t.Fatalf("pinned %d snapshots, want 2 (k-neighborhood, summarization)", pins)
	}

	boom := errors.New("boom")
	failing := TraversalEssentials(context.Background(), g, func() (model.Graph, model.ReleaseFunc, error) {
		return nil, nil, boom
	})
	if _, err := failing.KNeighborhood(a, 1); !errors.Is(err, boom) {
		t.Fatalf("KNeighborhood with a failing pin: %v", err)
	}
	if _, err := failing.Summarization(algo.AggCount, "", ""); !errors.Is(err, boom) {
		t.Fatalf("Summarization with a failing pin: %v", err)
	}
}
