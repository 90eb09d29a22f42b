package plan

import (
	"context"
	"errors"
	"sort"
	"testing"

	"gdbm/internal/memgraph"
	"gdbm/internal/model"
	"gdbm/internal/query"
)

func cancelTestSource(t *testing.T, n int) Source {
	t.Helper()
	g := memgraph.New()
	for i := 0; i < n; i++ {
		if _, err := g.AddNode("N", model.Props("i", i)); err != nil {
			t.Fatal(err)
		}
	}
	return UnindexedSource{g}
}

// TestWithCancelIdentity: a context that can never be cancelled must not pay
// for wrapping — WithCancel returns the source unchanged.
func TestWithCancelIdentity(t *testing.T) {
	src := cancelTestSource(t, 1)
	if got := WithCancel(context.Background(), src); got != src {
		t.Fatalf("WithCancel(Background) wrapped the source: %T", got)
	}
}

// TestWithCancelStopsScan: a cancelled context aborts a full node scan within
// one check stride and surfaces context.Canceled, not a silent short result.
func TestWithCancelStopsScan(t *testing.T) {
	src := cancelTestSource(t, 10*cancelStride)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	wrapped := WithCancel(ctx, src)

	seen := 0
	err := wrapped.Nodes(func(model.Node) bool {
		seen++
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Nodes under cancelled ctx: got %v, want context.Canceled", err)
	}
	if seen > cancelStride {
		t.Fatalf("scan delivered %d rows after cancellation (stride %d)", seen, cancelStride)
	}
}

// TestWithCancelMidScan cancels from inside the callback; the scan must stop
// within a stride and report the context error.
func TestWithCancelMidScan(t *testing.T) {
	src := cancelTestSource(t, 10*cancelStride)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wrapped := WithCancel(ctx, src)

	seen := 0
	err := wrapped.Nodes(func(model.Node) bool {
		seen++
		if seen == 2 {
			cancel()
		}
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Nodes after mid-scan cancel: got %v, want context.Canceled", err)
	}
	if seen > 2+cancelStride {
		t.Fatalf("scan delivered %d rows after cancellation (stride %d)", seen, cancelStride)
	}
}

// TestWithCancelPassesResults: an uncancelled wrapped source answers exactly
// like the bare one.
func TestWithCancelPassesResults(t *testing.T) {
	src := cancelTestSource(t, 100)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wrapped := WithCancel(ctx, src)

	seen := 0
	if err := wrapped.Nodes(func(model.Node) bool { seen++; return true }); err != nil {
		t.Fatal(err)
	}
	if seen != 100 {
		t.Fatalf("scan saw %d nodes, want 100", seen)
	}
	if wrapped.Order() != 100 || wrapped.Size() != 0 {
		t.Fatalf("Order/Size: %d/%d", wrapped.Order(), wrapped.Size())
	}
	if _, err := wrapped.Node(1); err != nil {
		t.Fatal(err)
	}
}

// capable is a Source over a memgraph that keeps the store's id adjacency
// and counts its requests in nativeCalls, so a test can tell which path
// answered. It scans nodes in ID
// order — memgraph's own order is Go's map order — so that two runs of one
// plan can be compared row for row.
type capable struct {
	*memgraph.Graph
	nativeCalls *int
}

func (c capable) Nodes(fn func(model.Node) bool) error {
	var nodes []model.Node
	if err := c.Graph.Nodes(func(n model.Node) bool {
		nodes = append(nodes, n)
		return true
	}); err != nil {
		return err
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	for _, n := range nodes {
		if !fn(n) {
			break
		}
	}
	return nil
}

func (capable) IndexedNodes(string, string, model.Value, func(model.Node) bool) (bool, error) {
	return false, nil
}

func (c capable) AppendNeighborIDs(buf []model.NeighborID, id model.NodeID, dir model.Direction, label string) ([]model.NeighborID, bool, error) {
	if c.nativeCalls != nil {
		*c.nativeCalls++
	}
	return c.Graph.AppendNeighborIDs(buf, id, dir, label)
}

// neighborsOnly is a Source that answers adjacency through Neighbors alone:
// embedding the model.Graph interface hides the wrapped store's id
// adjacency, which UnindexedSource forwards. It drives the operators'
// Neighbors branch, the one stores without id pairs take.
type neighborsOnly struct{ model.Graph }

func (neighborsOnly) IndexedNodes(string, string, model.Value, func(model.Node) bool) (bool, error) {
	return false, nil
}

// hubSources builds a hub with 10 strides of neighbours and returns it
// behind both adjacency paths.
func hubSources(t *testing.T) map[string]Source {
	t.Helper()
	g := memgraph.New()
	hub, err := g.AddNode("Hub", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10*cancelStride; i++ {
		n, err := g.AddNode("N", nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.AddEdge("link", hub, n, nil); err != nil {
			t.Fatal(err)
		}
	}
	return map[string]Source{"native": capable{Graph: g}, "fallback": neighborsOnly{g}}
}

// cancellingSink counts rows and cancels its context at row cancelAt.
type cancellingSink struct {
	rows, cancelAt int
	cancel         context.CancelFunc
}

func (s *cancellingSink) Cols([]string) error { return nil }
func (s *cancellingSink) Row([]model.Value) error {
	if s.rows++; s.rows == s.cancelAt {
		s.cancel()
	}
	return nil
}

func hubExpand(t *testing.T) Op {
	t.Helper()
	op, err := Compile(&MatchSpec{
		Nodes:  []NodePat{{Var: "h", Label: "Hub"}, {Var: "n"}},
		Edges:  []EdgePat{{Label: "link", From: 0, To: 1, Dir: model.Out}},
		Return: []Item{{Name: "n", Expr: query.Var{Name: "n"}}},
		Limit:  -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return op
}

// TestExpandUnderCancelledContext: an expand over a hub under a context
// that is already cancelled returns context.Canceled and delivers no row,
// whichever adjacency path the source offers.
func TestExpandUnderCancelledContext(t *testing.T) {
	for name, src := range hubSources(t) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		sink := &cancellingSink{}
		err := Stream(hubExpand(t), WithCancel(ctx, src), []string{"n"}, sink)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: got %v, want context.Canceled", name, err)
		}
		if sink.rows != 0 {
			t.Errorf("%s: %d rows delivered under a cancelled context", name, sink.rows)
		}
	}
}

// TestExpandCancelledMidExpansion: cancelling while a hub's neighbours are
// being delivered stops the expansion within one stride on the id path —
// whose list is already in the operator's buffer — as on the Neighbors
// stream, and the native path must be the one the capable source took.
func TestExpandCancelledMidExpansion(t *testing.T) {
	native := 0
	for name, src := range hubSources(t) {
		if c, ok := src.(capable); ok {
			c.nativeCalls = &native
			src = c
		}
		ctx, cancel := context.WithCancel(context.Background())
		sink := &cancellingSink{cancelAt: 2, cancel: cancel}
		err := Stream(hubExpand(t), WithCancel(ctx, src), []string{"n"}, sink)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: got %v, want context.Canceled", name, err)
		}
		if sink.rows < 2 || sink.rows > 2+cancelStride {
			t.Errorf("%s: %d rows delivered, want between 2 and %d", name, sink.rows, 2+cancelStride)
		}
	}
	if native != 1 {
		t.Errorf("the capable source answered %d id-adjacency requests, want 1", native)
	}
}

// cancelAfterNeighbors cancels a context on its after-th Neighbors call: a
// deadline landing mid-search.
type cancelAfterNeighbors struct {
	model.Graph
	after, calls int
	cancel       context.CancelFunc
}

func (c *cancelAfterNeighbors) Neighbors(id model.NodeID, dir model.Direction, fn func(model.Edge, model.Node) bool) error {
	if c.calls++; c.calls == c.after {
		c.cancel()
	}
	return c.Graph.Neighbors(id, dir, fn)
}

// TestCancelMidMatch cancels a pattern search with many embeddings partway
// through: MatchPattern returns the context's error, not the matches found
// so far.
func TestCancelMidMatch(t *testing.T) {
	const w = 8
	g := memgraph.New()
	ids := make([]model.NodeID, w*w)
	for i := range ids {
		ids[i], _ = g.AddNode("N", nil)
	}
	for i := range ids {
		if i%w+1 < w {
			g.AddEdge("e", ids[i], ids[i+1], nil)
		}
		if i+w < len(ids) {
			g.AddEdge("e", ids[i], ids[i+w], nil)
		}
	}
	pat, err := NewPattern(
		[]PatternNode{{Var: "a"}, {Var: "b"}, {Var: "c"}},
		[]PatternEdge{{From: 0, To: 1}, {From: 1, To: 2}},
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cg := &cancelAfterNeighbors{Graph: g, after: 50, cancel: cancel}
	if _, err := MatchPattern(ctx, cg, pat, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("MatchPattern after mid-search cancel: got %v, want context.Canceled", err)
	}
	if cg.calls > 50+cancelStride {
		t.Errorf("the search made %d Neighbors calls, cancelled at the 50th (stride %d)", cg.calls, cancelStride)
	}
}

// TestSimplePathsStopOnBudgetOrContext: on a complete 11-node digraph a*
// has about ten million simple paths from a node, more than the search's
// budget. The simple-path search then fails, rather than answering from the
// paths it got to, and a cancelled context stops it the same way; the
// reachability search answers all 11 nodes.
func TestSimplePathsStopOnBudgetOrContext(t *testing.T) {
	g := memgraph.New()
	ids := make([]model.NodeID, 11)
	for i := range ids {
		ids[i], _ = g.AddNode("N", nil)
	}
	for _, a := range ids {
		for _, b := range ids {
			if a != b {
				if _, err := g.AddEdge("a", a, b, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	src := capable{Graph: g}
	p, err := CompilePathExpr("a*")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if got, err := MatchPath(ctx, src, p, ids[0], Reachability); err != nil || len(got) != len(ids) {
		t.Fatalf("reachability: %v, %v", got, err)
	}
	if got, err := MatchPath(ctx, src, p, ids[0], SimplePaths); err == nil {
		t.Fatalf("simple paths answered %d nodes past the budget", len(got))
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := MatchPath(cancelled, src, p, ids[0], SimplePaths); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled simple-path search: %v", err)
	}
}
