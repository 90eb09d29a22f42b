package plan

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"gdbm/internal/kvgraph"
	"gdbm/internal/memgraph"
	"gdbm/internal/model"
	"gdbm/internal/query"
	"gdbm/internal/storage/kv"
)

// pairSource is a Source over a store that keeps the store's id adjacency
// and counts the requests that reached it: the vacuity guard that the
// id-pair branch served the store.
type pairSource struct {
	UnindexedSource
	pairs *int
}

func (p pairSource) AppendNeighborIDs(buf []model.NeighborID, id model.NodeID, dir model.Direction, label string) ([]model.NeighborID, bool, error) {
	*p.pairs++
	return p.Graph.(model.IDAdjacency).AppendNeighborIDs(buf, id, dir, label)
}

// sortedFixture loads three nodes with parallel edges, a second label, a
// cycle and a self-loop into g and returns the node ids.
func sortedFixture(t *testing.T, g model.MutableGraph) (a, b, c model.NodeID) {
	t.Helper()
	var ids [3]model.NodeID
	for i := range ids {
		id, err := g.AddNode("X", nil)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	a, b, c = ids[0], ids[1], ids[2]
	for _, e := range []struct {
		label    string
		from, to model.NodeID
	}{
		{"e", a, b},
		{"e", a, b}, // parallel
		{"f", a, c},
		{"e", c, a},
		{"e", b, b}, // self-loop
	} {
		if _, err := g.AddEdge(e.label, e.from, e.to, nil); err != nil {
			t.Fatal(err)
		}
	}
	return a, b, c
}

// TestSortedNeighborIDs holds plan.SortedNeighborIDs to its definition,
// sort(label-filtered Neighbors), on every store and on a pinned snapshot,
// bare and under WithCancel: all directions, the label filter, parallel
// edges repeated, a self-loop once per direction under Both, and an error
// for a missing node. The stores and the snapshot must have answered
// through their id pairs, and a graph without them through Neighbors.
func TestSortedNeighborIDs(t *testing.T) {
	disk, err := kv.OpenDisk(filepath.Join(t.TempDir(), "sorted.pg"), 64)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.Close() })
	mg := memgraph.New()
	stores := map[string]model.MutableGraph{
		"memgraph":     mg,
		"kvgraph-mem":  kvgraph.New(kv.NewMemory()),
		"kvgraph-disk": kvgraph.New(disk),
	}
	var a, b, c model.NodeID
	for name, g := range stores {
		ga, gb, gc := sortedFixture(t, g)
		if a != 0 && (ga != a || gb != b || gc != c) {
			t.Fatalf("%s numbered the fixture %d %d %d, the others %d %d %d", name, ga, gb, gc, a, b, c)
		}
		a, b, c = ga, gb, gc
	}
	view, release, err := mg.AcquireView()
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	check := func(name string, g model.Graph, src Source) {
		t.Helper()
		for _, s := range []Source{src, WithCancel(ctx, src)} {
			for id := a; id <= c; id++ {
				for _, dir := range []model.Direction{model.Out, model.In, model.Both} {
					for _, label := range []string{"", "e", "f", "ghost"} {
						got, err := SortedNeighborIDs(s, id, dir, label)
						if err != nil {
							t.Fatalf("%s %T: SortedNeighborIDs(%d,%v,%q): %v", name, s, id, dir, label, err)
						}
						var want []model.NodeID
						if err := g.Neighbors(id, dir, func(e model.Edge, far model.Node) bool {
							if label == "" || e.Label == label {
								want = append(want, far.ID)
							}
							return true
						}); err != nil {
							t.Fatal(err)
						}
						slices.Sort(want)
						if fmt.Sprint(got) != fmt.Sprint(want) {
							t.Errorf("%s %T: node %d dir %v label %q: got %v want %v", name, s, id, dir, label, got, want)
						}
					}
				}
			}
			for dir, want := range map[model.Direction]string{
				model.Out:  fmt.Sprint([]model.NodeID{b}),
				model.Both: fmt.Sprint([]model.NodeID{a, a, b, b}),
			} {
				got, err := SortedNeighborIDs(s, b, dir, "e")
				if err != nil || fmt.Sprint(got) != want {
					t.Errorf("%s %T: b %v: got %v, %v; want %s", name, s, dir, got, err, want)
				}
			}
			if got, _ := SortedNeighborIDs(s, a, model.Out, "e"); fmt.Sprint(got) != fmt.Sprint([]model.NodeID{b, b}) {
				t.Errorf("%s %T: parallel edges: got %v, want [%d %d]", name, s, got, b, b)
			}
			if _, err := SortedNeighborIDs(s, 999, model.Out, ""); err == nil {
				t.Errorf("%s %T: a missing node must be an error", name, s)
			}
		}
	}
	for name, g := range stores {
		pairs := 0
		check(name, g, pairSource{UnindexedSource{g}, &pairs})
		if pairs == 0 {
			t.Errorf("%s: no list came from the store's id pairs", name)
		}
	}
	pairs := 0
	check("snapshot", view, pairSource{UnindexedSource{view}, &pairs})
	if pairs == 0 {
		t.Error("snapshot: no list came from the view's id pairs")
	}
	// Embedding the Graph interface hides the view's id adjacency.
	neighborsOnly := struct{ model.Graph }{view}
	if _, handled, _ := (UnindexedSource{neighborsOnly}).AppendNeighborIDs(nil, a, model.Out, ""); handled {
		t.Fatal("a graph without id adjacency answered id pairs; the Neighbors branch went untested")
	}
	check("neighbors-only", neighborsOnly, UnindexedSource{neighborsOnly})
}

// armedCtx is a context that reports cancellation once armed; Done is
// non-nil so WithCancel wraps the source.
type armedCtx struct {
	context.Context
	done  chan struct{}
	armed bool
}

func (c *armedCtx) Done() <-chan struct{} { return c.done }
func (c *armedCtx) Err() error {
	if c.armed {
		return context.Canceled
	}
	return nil
}

// armOn arms ctx when the id pairs of node hub are requested: a deadline
// landing just as the hub's list starts to stream.
type armOn struct {
	pairSource
	hub model.NodeID
	ctx *armedCtx
}

func (s armOn) AppendNeighborIDs(buf []model.NeighborID, id model.NodeID, dir model.Direction, label string) ([]model.NeighborID, bool, error) {
	if id == s.hub {
		s.ctx.armed = true
	}
	return s.pairSource.AppendNeighborIDs(buf, id, dir, label)
}

// TestIntersectCancelledMidHub: a worst-case-optimal triangle plan whose
// intersection fetches the sorted list of a hub with more than 1 000
// neighbours, under a context cancelled as that list starts, returns
// context.Canceled before binding a single triangle — the list is
// collected through the cancellation wrapper one tick per id pair.
func TestIntersectCancelledMidHub(t *testing.T) {
	const fan = 1500
	g := memgraph.New()
	s, _ := g.AddNode("Src", nil)
	hub, _ := g.AddNode("Hub", nil)
	if _, err := g.AddEdge("e", s, hub, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fan; i++ {
		n, _ := g.AddNode("N", nil)
		for _, from := range []model.NodeID{s, hub} {
			if _, err := g.AddEdge("e", from, n, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	// s → b, then c in out(s) ∩ out(b): b = hub first, then every leaf.
	op := &IntersectExpand{
		Child: &Expand{Child: &NodeScan{Var: "a", Label: "Src"}, FromVar: "a", ToVar: "b", Label: "e", Dir: model.Out},
		Inputs: []IntersectInput{
			{FromVar: "a", Label: "e", Dir: model.Out},
			{FromVar: "b", Label: "e", Dir: model.Out},
		},
		ToVar: "c",
	}
	bindTree(op)
	ctx := &armedCtx{Context: context.Background(), done: make(chan struct{})}
	pairs := 0
	src := WithCancel(ctx, armOn{pairSource{UnindexedSource{g}, &pairs}, hub, ctx})
	rows := 0
	err := op.Run(src, func(query.Row) error { rows++; return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if !ctx.armed {
		t.Fatal("the hub's list was never requested")
	}
	if rows != 0 {
		t.Errorf("%d triangles bound after the hub's list was cancelled", rows)
	}
}
