package algo

import (
	"context"
	"errors"
	"testing"

	"gdbm/internal/memgraph"
	"gdbm/internal/model"
)

// cancelled returns a context that is already done.
func cancelled() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// grid builds a w×w lattice so every traversal has several levels and a
// healthy branching factor.
func grid(t *testing.T, w int) (*memgraph.Graph, []model.NodeID) {
	t.Helper()
	g := memgraph.New()
	ids := make([]model.NodeID, w*w)
	for i := range ids {
		ids[i], _ = g.AddNode("N", model.Props("i", i))
	}
	for r := 0; r < w; r++ {
		for c := 0; c < w; c++ {
			if c+1 < w {
				if _, err := g.AddEdge("e", ids[r*w+c], ids[r*w+c+1], nil); err != nil {
					t.Fatal(err)
				}
			}
			if r+1 < w {
				if _, err := g.AddEdge("e", ids[r*w+c], ids[(r+1)*w+c], nil); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return g, ids
}

// TestCancelledContextReturnsPromptly is the satellite regression test: every
// Ctx kernel entry point handed an already-cancelled context must return
// ctx.Err() without touching the graph (beyond at most an entry check), so a
// request whose deadline passed while queued burns no traversal CPU.
func TestCancelledContextReturnsPromptly(t *testing.T) {
	g, ids := grid(t, 8)
	ctx := cancelled()
	first, last := ids[0], ids[len(ids)-1]

	calls := map[string]func() error{
		"BFSCtx": func() error {
			return BFSCtx(ctx, g, first, model.Out, func(model.NodeID, int) bool { return true })
		},
		"NeighborhoodCtx": func() error {
			_, err := NeighborhoodCtx(ctx, g, first, 3, model.Out)
			return err
		},
		"ReachableCtx": func() error {
			_, err := ReachableCtx(ctx, g, first, last, model.Out)
			return err
		},
		"ReachableCtx from == to": func() error {
			_, err := ReachableCtx(ctx, g, first, first, model.Out)
			return err
		},
		"FixedLengthPathsCtx": func() error {
			_, err := FixedLengthPathsCtx(ctx, g, first, last, 14, model.Out, 0)
			return err
		},
		"ShortestPathCtx": func() error {
			_, err := ShortestPathCtx(ctx, g, first, last, model.Out)
			return err
		},
		"DistanceCtx": func() error {
			_, err := DistanceCtx(ctx, g, first, last, model.Out)
			return err
		},
		"DiameterCtx": func() error {
			_, err := DiameterCtx(ctx, g, model.Both)
			return err
		},
		"AggregateNodePropCtx": func() error {
			_, err := AggregateNodePropCtx(ctx, g, "", "i", AggSum)
			return err
		},
	}
	for name, call := range calls {
		if err := call(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s with cancelled ctx: got %v, want context.Canceled", name, err)
		}
	}
}

// TestCancelMidTraversal cancels from inside the visit callback and checks
// the walk stops at the next level boundary with the context's error.
func TestCancelMidTraversal(t *testing.T) {
	g, ids := grid(t, 8)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	visits := 0
	err := BFSCtx(ctx, g, ids[0], model.Out, func(_ model.NodeID, depth int) bool {
		visits++
		if depth == 2 {
			cancel()
		}
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("BFSCtx after mid-walk cancel: got %v, want context.Canceled", err)
	}
	if visits >= len(ids) {
		t.Fatalf("BFSCtx visited all %d nodes despite cancellation", visits)
	}
}

// TestCancelMidAggregate cancels a node scan partway through and checks the
// fold stops at its next periodic check with ctx.Err() instead of an answer.
func TestCancelMidAggregate(t *testing.T) {
	g, _ := grid(t, 64)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cg := &cancelAfterScan{Graph: g, after: 100, cancel: cancel}
	if _, err := AggregateNodePropCtx(ctx, cg, "", "i", AggAvg); !errors.Is(err, context.Canceled) {
		t.Fatalf("AggregateNodePropCtx after mid-scan cancel: got %v, want context.Canceled", err)
	}
}

// TestBackgroundUnaffected guards the compatibility contract: the ctx-free
// names still work and the Ctx variants with context.Background() answer
// identically.
func TestBackgroundUnaffected(t *testing.T) {
	g, ids := grid(t, 4)
	p1, err := ShortestPath(g, ids[0], ids[len(ids)-1], model.Out)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ShortestPathCtx(context.Background(), g, ids[0], ids[len(ids)-1], model.Out)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Len() != p2.Len() || p1.Len() != 6 {
		t.Fatalf("path lengths differ: %d vs %d (want 6)", p1.Len(), p2.Len())
	}
}

// cancelAfterScan cancels a context once a node scan has yielded a fixed
// number of nodes, simulating a deadline landing mid-fold.
type cancelAfterScan struct {
	model.Graph
	after  int
	cancel context.CancelFunc
}

func (c *cancelAfterScan) Nodes(fn func(model.Node) bool) error {
	seen := 0
	return c.Graph.Nodes(func(n model.Node) bool {
		if seen++; seen == c.after {
			c.cancel()
		}
		return fn(n)
	})
}
