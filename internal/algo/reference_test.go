package algo

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"gdbm/internal/kvgraph"
	"gdbm/internal/memgraph"
	"gdbm/internal/model"
	"gdbm/internal/storage/kv"
)

// Reference breadth-first kernels: each reads (Edge, Node) records through
// Neighbors alone and keeps its own queue, so they share no code with
// plan.Walk, and FuzzWalkMatchesReference checks the walk-based kernels
// against them.

func refBFS(g model.Graph, start model.NodeID, dir model.Direction, visit func(id model.NodeID, depth int) bool) error {
	if _, err := g.Node(start); err != nil {
		return err
	}
	visited := map[model.NodeID]bool{start: true}
	type item struct {
		id    model.NodeID
		depth int
	}
	queue := []item{{start, 0}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if !visit(cur.id, cur.depth) {
			return nil
		}
		err := g.Neighbors(cur.id, dir, func(_ model.Edge, n model.Node) bool {
			if !visited[n.ID] {
				visited[n.ID] = true
				queue = append(queue, item{n.ID, cur.depth + 1})
			}
			return true
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func refNeighborhood(g model.Graph, start model.NodeID, k int, dir model.Direction) ([]model.NodeID, error) {
	if _, err := g.Node(start); err != nil {
		return nil, err
	}
	visited := map[model.NodeID]bool{start: true}
	frontier := []model.NodeID{start}
	var out []model.NodeID
	for depth := 0; depth < k && len(frontier) > 0; depth++ {
		var next []model.NodeID
		for _, id := range frontier {
			err := g.Neighbors(id, dir, func(_ model.Edge, n model.Node) bool {
				if !visited[n.ID] {
					visited[n.ID] = true
					next = append(next, n.ID)
					out = append(out, n.ID)
				}
				return true
			})
			if err != nil {
				return nil, err
			}
		}
		frontier = next
	}
	return out, nil
}

func refReachable(g model.Graph, from, to model.NodeID, dir model.Direction) (bool, error) {
	if from == to {
		if _, err := g.Node(from); err != nil {
			return false, err
		}
		return true, nil
	}
	found := false
	err := refBFS(g, from, dir, func(id model.NodeID, _ int) bool {
		found = id == to
		return !found
	})
	return found, err
}

func refShortestPath(g model.Graph, from, to model.NodeID, dir model.Direction) (Path, error) {
	if _, err := g.Node(from); err != nil {
		return Path{}, err
	}
	if _, err := g.Node(to); err != nil {
		return Path{}, err
	}
	if from == to {
		return Path{Nodes: []model.NodeID{from}}, nil
	}
	parent := map[model.NodeID]parentHop{from: {}}
	queue := []model.NodeID{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		var reached bool
		err := g.Neighbors(cur, dir, func(e model.Edge, n model.Node) bool {
			if _, seen := parent[n.ID]; seen {
				return true
			}
			parent[n.ID] = parentHop{cur, e.ID}
			if n.ID == to {
				reached = true
				return false
			}
			queue = append(queue, n.ID)
			return true
		})
		if err != nil {
			return Path{}, err
		}
		if reached {
			return assemble(parent, from, to), nil
		}
	}
	return Path{}, fmt.Errorf("no path from %d to %d: %w", from, to, model.ErrNotFound)
}

func refDistance(g model.Graph, a, b model.NodeID, dir model.Direction) (int, error) {
	p, err := refShortestPath(g, a, b, dir)
	if err != nil {
		return -1, err
	}
	return p.Len(), nil
}

func refDiameter(g model.Graph, dir model.Direction) (int, error) {
	max := 0
	var iterErr error
	err := g.Nodes(func(n model.Node) bool {
		iterErr = refBFS(g, n.ID, dir, func(_ model.NodeID, depth int) bool {
			if depth > max {
				max = depth
			}
			return true
		})
		return iterErr == nil
	})
	if err != nil {
		return 0, err
	}
	if iterErr != nil {
		return 0, iterErr
	}
	return max, nil
}

// decodeMultigraph loads a byte stream into g: one to eight nodes, then one
// edge per two bytes (its endpoints, and a label from the first), up to 32.
// Equal endpoints make self-loops and repeated pairs parallel edges.
func decodeMultigraph(t *testing.T, data []byte, g model.MutableGraph) []model.NodeID {
	t.Helper()
	if len(data) == 0 {
		data = []byte{0}
	}
	ids := make([]model.NodeID, 1+int(data[0]%8))
	for i := range ids {
		id, err := g.AddNode("N", nil)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	labels := []string{"a", "b", "c"}
	rest := data[1:]
	for m := 0; m < 32 && len(rest) >= 2; m, rest = m+1, rest[2:] {
		a, b := ids[int(rest[0])%len(ids)], ids[int(rest[1])%len(ids)]
		if _, err := g.AddEdge(labels[int(rest[0]>>4)%3], a, b, nil); err != nil {
			t.Fatal(err)
		}
	}
	return ids
}

// errText is an error's text, "" for nil, so results compare with ==.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// FuzzWalkMatchesReference holds every kernel that runs on plan.Walk to
// the reference above, on byte-decoded multigraphs with self-loops and
// parallel edges, in all three directions, over four stores: memgraph, a
// frozen memgraph view, kvgraph on kv.Memory (both answering id pairs) and
// a wrapper with Neighbors alone. It compares the BFS (id, depth) sequence
// whole and stopped early, Neighborhood for k from -1 to 4, Reachable,
// ShortestPath's nodes and edges and Distance over every ordered pair of
// nodes (from == to included) and a missing id, and Diameter, errors
// included.
func FuzzWalkMatchesReference(f *testing.F) {
	f.Add([]byte{3, 0, 1, 1, 2, 2, 0})                // a directed triangle
	f.Add([]byte{4, 0, 1, 0, 1, 2, 2, 1, 3, 3, 3})    // parallel edges and self-loops
	f.Add([]byte{7, 0, 1, 1, 2, 2, 3, 4, 5, 6, 6})    // a chain and a second component
	f.Add([]byte{5, 0, 1, 0, 2, 0, 3, 0, 4, 4, 0})    // a star with a back edge
	f.Add([]byte{0, 0, 0, 0, 0})                      // one node, two self-loops
	f.Add([]byte{6, 16, 1, 33, 2, 50, 3, 1, 4, 2, 5}) // every label
	f.Fuzz(func(t *testing.T, data []byte) {
		mg := memgraph.New()
		ids := decodeMultigraph(t, data, mg)
		kg := kvgraph.New(kv.NewMemory())
		kids := decodeMultigraph(t, data, kg)
		view, release, err := mg.AcquireView()
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		for _, s := range []struct {
			name string
			g    model.Graph
			ids  []model.NodeID
		}{
			{"memgraph", mg, ids},
			{"view", view, ids},
			{"kvgraph", kg, kids},
			{"neighbors", struct{ model.Graph }{mg}, ids},
		} {
			for _, dir := range []model.Direction{model.Out, model.In, model.Both} {
				checkWalkKernels(t, s.name, s.g, s.ids, dir)
			}
		}
	})
}

func checkWalkKernels(t *testing.T, name string, g model.Graph, ids []model.NodeID, dir model.Direction) {
	t.Helper()
	ctx := context.Background()
	at := func(kernel string, args ...any) string {
		return fmt.Sprintf("%s %s dir=%v %v", name, kernel, dir, args)
	}
	missing := ids[len(ids)-1] + 100
	starts := append(append([]model.NodeID(nil), ids...), missing)

	type step struct {
		id    model.NodeID
		depth int
	}
	for _, start := range starts {
		for _, stop := range []int{0, 1, 3} {
			var want, got []step
			record := func(seq *[]step) func(model.NodeID, int) bool {
				return func(id model.NodeID, depth int) bool {
					*seq = append(*seq, step{id, depth})
					return stop == 0 || len(*seq) < stop
				}
			}
			wantErr := refBFS(g, start, dir, record(&want))
			gotErr := BFSCtx(ctx, g, start, dir, record(&got))
			if !reflect.DeepEqual(got, want) || errText(gotErr) != errText(wantErr) {
				t.Errorf("%s = %v, %v; reference %v, %v", at("BFS", start, stop), got, gotErr, want, wantErr)
			}
		}
		for k := -1; k <= 4; k++ {
			want, wantErr := refNeighborhood(g, start, k, dir)
			got, gotErr := NeighborhoodCtx(ctx, g, start, k, dir)
			if !reflect.DeepEqual(got, want) || errText(gotErr) != errText(wantErr) {
				t.Errorf("%s = %v, %v; reference %v, %v", at("Neighborhood", start, k), got, gotErr, want, wantErr)
			}
		}
		for _, to := range starts {
			wantOK, wantErr := refReachable(g, start, to, dir)
			gotOK, gotErr := ReachableCtx(ctx, g, start, to, dir)
			if gotOK != wantOK || errText(gotErr) != errText(wantErr) {
				t.Errorf("%s = %v, %v; reference %v, %v", at("Reachable", start, to), gotOK, gotErr, wantOK, wantErr)
			}
			wantP, wantErr := refShortestPath(g, start, to, dir)
			gotP, gotErr := ShortestPathCtx(ctx, g, start, to, dir)
			if !reflect.DeepEqual(gotP, wantP) || errText(gotErr) != errText(wantErr) {
				t.Errorf("%s = %+v, %v; reference %+v, %v", at("ShortestPath", start, to), gotP, gotErr, wantP, wantErr)
			}
			wantD, wantErr := refDistance(g, start, to, dir)
			gotD, gotErr := DistanceCtx(ctx, g, start, to, dir)
			if gotD != wantD || errText(gotErr) != errText(wantErr) {
				t.Errorf("%s = %d, %v; reference %d, %v", at("Distance", start, to), gotD, gotErr, wantD, wantErr)
			}
		}
	}
	want, wantErr := refDiameter(g, dir)
	got, gotErr := DiameterCtx(ctx, g, dir)
	if got != want || errText(gotErr) != errText(wantErr) {
		t.Errorf("%s = %d, %v; reference %d, %v", at("Diameter"), got, gotErr, want, wantErr)
	}
}
