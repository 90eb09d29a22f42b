package stats_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"gdbm/internal/memgraph"
	"gdbm/internal/model"
	"gdbm/internal/query/stats"
)

// TestMergeEqualsBuild cuts one graph into chunks of several sizes and
// checks that folding the chunks' partials gives exactly what Build gives
// on the whole — saturated KMV sketches (more than k distinct values per
// chunk and overall), unlabeled nodes and self-loops included.
func TestMergeEqualsBuild(t *testing.T) {
	g := memgraph.New()
	labels := []string{"", "person", "place"}
	var ids []model.NodeID
	for i := 0; i < 2000; i++ {
		props := model.Props("idx", i, "rank", i%7)
		if i%5 == 0 {
			props["name"] = model.Str(fmt.Sprintf("n%d", i/5))
		}
		id, err := g.AddNode(labels[i%len(labels)], props)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := range ids {
		to := ids[(i*7+3)%len(ids)]
		if i%50 == 0 {
			to = ids[i] // self-loop: two degrees on one node
		}
		if _, err := g.AddEdge([]string{"knows", "near"}[i%2], ids[i], to, nil); err != nil {
			t.Fatal(err)
		}
	}
	want, err := stats.Build(g, g.Epoch())
	if err != nil {
		t.Fatal(err)
	}

	var nodes []model.Node
	var edges []model.Edge
	g.Nodes(func(n model.Node) bool { nodes = append(nodes, n); return true })
	g.Edges(func(e model.Edge) bool { edges = append(edges, e); return true })
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	sort.Slice(edges, func(i, j int) bool { return edges[i].ID < edges[j].ID })
	for _, chunk := range []int{1, 17, 512, 5000} {
		var parts []*stats.Partial
		for lo := 0; lo < len(nodes); lo += chunk {
			part := nodes[lo:min(lo+chunk, len(nodes))]
			parts = append(parts, stats.NodePartial(part, func(i int) int {
				d, err := g.Degree(part[i].ID, model.Both)
				if err != nil {
					t.Fatal(err)
				}
				return d
			}))
		}
		parts = append(parts, nil) // skipped
		for lo := 0; lo < len(edges); lo += chunk {
			parts = append(parts, stats.EdgePartial(edges[lo:min(lo+chunk, len(edges))]))
		}
		if got := stats.Merge(g.Epoch(), parts); !reflect.DeepEqual(got, want) {
			t.Errorf("chunks of %d: merged partials differ from Build\nmerged: %+v\nbuilt:  %+v", chunk, got, want)
		}
	}
	if d := 1 / want.PropSelectivity("", "idx"); d < 1500 || d > 2500 {
		t.Errorf("the idx sketch did not saturate as the test intends: %v", d)
	}
}
