package gql

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"gdbm/internal/index"
	"gdbm/internal/memgraph"
	"gdbm/internal/model"
	"gdbm/internal/query/plan"
)

// indexedDB wraps memgraph with a label + property index, exercising the
// planner's index path.
type indexedDB struct {
	*memgraph.Graph
	idx *index.Manager
}

func (d indexedDB) IndexedNodes(label, prop string, v model.Value, fn func(model.Node) bool) (bool, error) {
	var ix index.Index
	var key model.Value
	if prop != "" {
		i, ok := d.idx.Get(index.Nodes, prop)
		if !ok {
			return false, nil
		}
		ix, key = i, v
	} else {
		i, ok := d.idx.Get(index.Nodes, "")
		if !ok || label == "" {
			return false, nil
		}
		ix, key = i, model.Str(label)
	}
	err := ix.Lookup(key, func(id uint64) bool {
		n, err := d.Graph.Node(model.NodeID(id))
		if err != nil {
			return true
		}
		if label != "" && n.Label != label {
			return true
		}
		return fn(n)
	})
	return true, err
}

// metamorphicDBs loads the same deterministic graph into a plain and an
// indexed store.
func metamorphicDBs() (testDB, indexedDB) {
	plainG := memgraph.New()
	idxG := memgraph.New()
	mgr := index.NewManager()
	mgr.Create(index.Nodes, "", index.KindHash)
	mgr.Create(index.Nodes, "group", index.KindBitmap)

	// Same deterministic data into both.
	seed := func(g *memgraph.Graph, withIdx bool) {
		var ids []model.NodeID
		for i := 0; i < 60; i++ {
			label := []string{"A", "B", "C"}[i%3]
			props := model.Props("group", i%5, "rank", i)
			id, _ := g.AddNode(label, props)
			ids = append(ids, id)
			if withIdx {
				mgr.OnNodeWrite(model.Node{ID: id, Label: label, Props: props}, "", nil)
			}
		}
		for i := 0; i < 60; i++ {
			g.AddEdge("next", ids[i], ids[(i+1)%60], nil)
			if i%4 == 0 {
				g.AddEdge("jump", ids[i], ids[(i+13)%60], nil)
			}
		}
	}
	seed(plainG, false)
	seed(idxG, true)
	return testDB{plainG}, indexedDB{Graph: idxG, idx: mgr}
}

// metamorphicQueries is the read corpus the metamorphic tests run.
var metamorphicQueries = []string{
	`MATCH (a:A) RETURN a.rank AS r`,
	`MATCH (a:A {group: 2}) RETURN a.rank AS r`,
	`MATCH (a:B)-[:next]->(b) RETURN a.rank AS r, b.rank AS s`,
	`MATCH (a {group: 0})-[:jump]->(b)-[:next]->(c) RETURN c.rank AS r`,
	`MATCH (a:C) WHERE a.rank > 30 RETURN count(*) AS n`,
	`MATCH (a:A)-[:next]->(b:B) RETURN a.rank + b.rank AS s ORDER BY s LIMIT 5`,
}

// Metamorphic property: the same query over the same data returns the same
// multiset of rows whether the planner scans or uses indexes.
func TestIndexedAndScannedResultsAgree(t *testing.T) {
	plain, indexed := metamorphicDBs()
	for _, q := range metamorphicQueries {
		t.Run(q, func(t *testing.T) {
			r1, err := execCollect(context.Background(), q, plain)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := execCollect(context.Background(), q, indexed)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := canon(r2), canon(r1); got != want {
				t.Errorf("results differ:\nscan:  %s\nindex: %s", want, got)
			}
		})
	}
}

// canon renders a result as a sorted multiset string.
func canon(r *plan.Result) string {
	var rows []string
	for _, row := range r.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.String()
		}
		rows = append(rows, strings.Join(parts, ","))
	}
	sort.Strings(rows)
	return fmt.Sprintf("%v|%s", r.Cols, strings.Join(rows, ";"))
}
