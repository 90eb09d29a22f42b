package kvgraph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"gdbm/internal/memgraph"
	"gdbm/internal/model"
	"gdbm/internal/obs"
	"gdbm/internal/storage/kv"
)

func graphs(t *testing.T) map[string]*Graph {
	t.Helper()
	disk, err := kv.OpenDisk(filepath.Join(t.TempDir(), "g.pg"), 32)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.Close() })
	return map[string]*Graph{
		"memory": New(kv.NewMemory()),
		"disk":   New(disk),
	}
}

func TestBasicCRUD(t *testing.T) {
	for name, g := range graphs(t) {
		t.Run(name, func(t *testing.T) {
			a, err := g.AddNode("Person", model.Props("name", "ada"))
			if err != nil {
				t.Fatal(err)
			}
			b, _ := g.AddNode("Person", nil)
			eid, err := g.AddEdge("knows", a, b, model.Props("since", 2019))
			if err != nil {
				t.Fatal(err)
			}
			if g.Order() != 2 || g.Size() != 1 {
				t.Fatalf("order=%d size=%d", g.Order(), g.Size())
			}
			n, err := g.Node(a)
			if err != nil || n.Label != "Person" {
				t.Fatalf("Node: %+v %v", n, err)
			}
			if v, _ := n.Props.Get("name").AsString(); v != "ada" {
				t.Errorf("name = %v", n.Props)
			}
			e, err := g.Edge(eid)
			if err != nil || e.From != a || e.To != b || e.Label != "knows" {
				t.Fatalf("Edge: %+v %v", e, err)
			}
			if v, _ := e.Props.Get("since").AsInt(); v != 2019 {
				t.Errorf("since = %v", e.Props)
			}
			if _, err := g.Node(99); !errors.Is(err, model.ErrNotFound) {
				t.Errorf("missing node: %v", err)
			}
			if _, err := g.Edge(99); !errors.Is(err, model.ErrNotFound) {
				t.Errorf("missing edge: %v", err)
			}
			if _, err := g.AddEdge("x", a, 99, nil); !errors.Is(err, model.ErrNotFound) {
				t.Errorf("dangling edge: %v", err)
			}
		})
	}
}

func TestNeighborsAndDegree(t *testing.T) {
	for name, g := range graphs(t) {
		t.Run(name, func(t *testing.T) {
			a, _ := g.AddNode("N", nil)
			b, _ := g.AddNode("N", nil)
			c, _ := g.AddNode("N", nil)
			g.AddEdge("e", a, b, nil)
			g.AddEdge("e", a, c, nil)
			g.AddEdge("f", b, a, nil)
			count := func(dir model.Direction) int {
				n := 0
				g.Neighbors(a, dir, func(model.Edge, model.Node) bool { n++; return true })
				return n
			}
			if count(model.Out) != 2 || count(model.In) != 1 || count(model.Both) != 3 {
				t.Errorf("neighbors out=%d in=%d both=%d", count(model.Out), count(model.In), count(model.Both))
			}
			d, _ := g.Degree(a, model.Both)
			if d != 3 {
				t.Errorf("degree = %d", d)
			}
			// Early stop.
			n := 0
			g.Neighbors(a, model.Both, func(model.Edge, model.Node) bool { n++; return false })
			if n != 1 {
				t.Errorf("early stop visited %d", n)
			}
			if err := g.Neighbors(99, model.Out, func(model.Edge, model.Node) bool { return true }); !errors.Is(err, model.ErrNotFound) {
				t.Errorf("missing node: %v", err)
			}
		})
	}
}

func TestRemoveNodeCascadesAndSelfLoop(t *testing.T) {
	for name, g := range graphs(t) {
		t.Run(name, func(t *testing.T) {
			a, _ := g.AddNode("N", nil)
			b, _ := g.AddNode("N", nil)
			g.AddEdge("e", a, b, nil)
			g.AddEdge("self", a, a, nil) // self loop: both adjacency lists
			if err := g.RemoveNode(a); err != nil {
				t.Fatal(err)
			}
			if g.Order() != 1 || g.Size() != 0 {
				t.Errorf("order=%d size=%d", g.Order(), g.Size())
			}
			if err := g.RemoveNode(a); !errors.Is(err, model.ErrNotFound) {
				t.Errorf("double remove: %v", err)
			}
		})
	}
}

func TestSetProps(t *testing.T) {
	for name, g := range graphs(t) {
		t.Run(name, func(t *testing.T) {
			a, _ := g.AddNode("N", nil)
			b, _ := g.AddNode("N", nil)
			eid, _ := g.AddEdge("e", a, b, nil)
			if err := g.SetNodeProp(a, "k", model.Int(7)); err != nil {
				t.Fatal(err)
			}
			n, _ := g.Node(a)
			if v, _ := n.Props.Get("k").AsInt(); v != 7 {
				t.Errorf("k = %v", n.Props)
			}
			if err := g.SetEdgeProp(eid, "w", model.Float(0.5)); err != nil {
				t.Fatal(err)
			}
			e, _ := g.Edge(eid)
			if v, _ := e.Props.Get("w").AsFloat(); v != 0.5 {
				t.Errorf("w = %v", e.Props)
			}
			if err := g.SetNodeProp(99, "k", model.Int(1)); !errors.Is(err, model.ErrNotFound) {
				t.Errorf("missing: %v", err)
			}
		})
	}
}

func TestIterationMaterializedAllowsNestedReads(t *testing.T) {
	// The regression behind the materialization contract: nested reads
	// inside Nodes/Edges/Neighbors callbacks must not deadlock on the
	// store lock.
	disk, err := kv.OpenDisk(filepath.Join(t.TempDir(), "nested.pg"), 16)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	g := New(disk)
	a, _ := g.AddNode("N", nil)
	b, _ := g.AddNode("N", nil)
	g.AddEdge("e", a, b, nil)

	done := make(chan error, 1)
	go func() {
		done <- g.Nodes(func(n model.Node) bool {
			// Nested read during iteration.
			g.Degree(n.ID, model.Both)
			g.Neighbors(n.ID, model.Both, func(e model.Edge, far model.Node) bool {
				g.Edge(e.ID)
				return true
			})
			return true
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("nested reads deadlocked")
	}
}

// Property: kvgraph over memory KV behaves identically to memgraph for
// arbitrary operation sequences.
func TestKVGraphMatchesMemgraphQuick(t *testing.T) {
	type op struct {
		A, B    uint8
		Del     bool
		DelNode bool
	}
	f := func(ops []op) bool {
		kvg := New(kv.NewMemory())
		ref := memgraph.New()
		const k = 8
		kvIDs := make([]model.NodeID, k)
		refIDs := make([]model.NodeID, k)
		for i := 0; i < k; i++ {
			kvIDs[i], _ = kvg.AddNode("N", nil)
			refIDs[i], _ = ref.AddNode("N", nil)
		}
		alive := make([]bool, k)
		for i := range alive {
			alive[i] = true
		}
		for _, o := range ops {
			a, b := int(o.A)%k, int(o.B)%k
			switch {
			case o.DelNode:
				if alive[a] {
					kvg.RemoveNode(kvIDs[a])
					ref.RemoveNode(refIDs[a])
					alive[a] = false
				}
			case !o.Del:
				if alive[a] && alive[b] {
					kvg.AddEdge("e", kvIDs[a], kvIDs[b], nil)
					ref.AddEdge("e", refIDs[a], refIDs[b], nil)
				}
			}
		}
		if kvg.Order() != ref.Order() || kvg.Size() != ref.Size() {
			return false
		}
		for i := 0; i < k; i++ {
			if !alive[i] {
				continue
			}
			for _, dir := range []model.Direction{model.Out, model.In, model.Both} {
				kd, _ := kvg.Degree(kvIDs[i], dir)
				rd, _ := ref.Degree(refIDs[i], dir)
				if kd != rd {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "persist.pg")
	disk, err := kv.OpenDisk(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	g := New(disk)
	var last model.NodeID
	for i := 0; i < 50; i++ {
		last, _ = g.AddNode("N", model.Props("i", i))
		if i > 0 {
			g.AddEdge("next", last-1, last, nil)
		}
	}
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}

	disk2, err := kv.OpenDisk(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer disk2.Close()
	g2 := New(disk2)
	if g2.Order() != 50 || g2.Size() != 49 {
		t.Fatalf("after reopen: order=%d size=%d", g2.Order(), g2.Size())
	}
	// ID allocation continues after the persisted counter.
	id, _ := g2.AddNode("N", nil)
	if id != 51 {
		t.Errorf("next id = %d, want 51", id)
	}
	n, err := g2.Node(25)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := n.Props.Get("i").AsInt(); v != 24 {
		t.Errorf("node 25 props = %v", n.Props)
	}
}

func TestStoreAccessor(t *testing.T) {
	st := kv.NewMemory()
	g := New(st)
	if g.Store() != st {
		t.Error("Store() should return the wrapped store")
	}
	_ = fmt.Sprint(g.Order())
}

// wantNeighborIDs is what Neighbors enumerates for (id, dir), filtered by
// label: the order AppendNeighborIDs promises.
func wantNeighborIDs(t *testing.T, g *Graph, id model.NodeID, dir model.Direction, label string) []model.NeighborID {
	t.Helper()
	var want []model.NeighborID
	if err := g.Neighbors(id, dir, func(e model.Edge, n model.Node) bool {
		if label == "" || e.Label == label {
			want = append(want, model.NeighborID{Edge: e.ID, Node: n.ID})
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestAppendNeighborIDsMatchesNeighbors: the id-adjacency capability answers
// every (node, direction, label) exactly as Neighbors enumerates it —
// self-loops, parallel edges, the empty label and removals included — from
// the adjacency range alone: no node or edge record is read for a node
// that has entries in the range.
func TestAppendNeighborIDsMatchesNeighbors(t *testing.T) {
	for name, g := range graphs(t) {
		t.Run(name, func(t *testing.T) {
			reg := obs.NewRegistry()
			g.SetMetrics(reg)
			var ids []model.NodeID
			for i := 0; i < 6; i++ {
				id, _ := g.AddNode("N", nil)
				ids = append(ids, id)
			}
			labels := []string{"a", "b", ""}
			var eids []model.EdgeID
			add := func(label string, from, to model.NodeID) {
				eid, err := g.AddEdge(label, from, to, nil)
				if err != nil {
					t.Fatal(err)
				}
				eids = append(eids, eid)
			}
			for i := 0; i < 30; i++ {
				add(labels[i%3], ids[i%6], ids[(i*5+i/6)%6])
			}
			add("a", ids[0], ids[0])
			add("b", ids[1], ids[2])
			add("b", ids[1], ids[2])
			if err := g.RemoveEdge(eids[4]); err != nil {
				t.Fatal(err)
			}
			if err := g.RemoveNode(ids[5]); err != nil {
				t.Fatal(err)
			}
			isolated, _ := g.AddNode("N", nil)
			nodeReads, edgeReads := reg.Counter("kvgraph.node_reads"), reg.Counter("kvgraph.edge_reads")
			pre := []model.NeighborID{{Edge: 99, Node: 99}}
			for _, id := range append(ids[:5:5], isolated) {
				for _, dir := range []model.Direction{model.Out, model.In, model.Both} {
					for _, label := range []string{"", "a", "b", "none"} {
						want := wantNeighborIDs(t, g, id, dir, label)
						n0, e0 := nodeReads.Value(), edgeReads.Value()
						got, handled, err := g.AppendNeighborIDs(pre, id, dir, label)
						if err != nil || !handled {
							t.Fatalf("node %d %v %q: handled %v, err %v", id, dir, label, handled, err)
						}
						if got[0] != pre[0] || !slices.Equal(got[1:], want) {
							t.Errorf("node %d %v %q: got %v, want %v after the prefix", id, dir, label, got, want)
						}
						if id != isolated && (nodeReads.Value() != n0 || edgeReads.Value() != e0) {
							t.Errorf("node %d %v %q: read %d node and %d edge records", id, dir, label, nodeReads.Value()-n0, edgeReads.Value()-e0)
						}
					}
				}
			}
			for _, id := range []model.NodeID{ids[5], 9999} {
				if _, _, err := g.AppendNeighborIDs(nil, id, model.Both, ""); !errors.Is(err, model.ErrNotFound) {
					t.Errorf("missing node %d: err = %v, want ErrNotFound", id, err)
				}
			}
		})
	}
}

// TestAppendNeighborIDsOverUnlabelledEntries: a store written before the
// edge label was kept beside the far id still answers — unlabelled requests
// from the entries, labelled ones unhandled, so the caller asks Neighbors.
func TestAppendNeighborIDsOverUnlabelledEntries(t *testing.T) {
	st := kv.NewMemory()
	g := New(st)
	a, _ := g.AddNode("N", nil)
	b, _ := g.AddNode("N", nil)
	for _, e := range []struct {
		label    string
		from, to model.NodeID
	}{{"x", a, b}, {"y", b, a}} {
		eid, err := g.AddEdge(e.label, e.from, e.to, nil)
		if err != nil {
			t.Fatal(err)
		}
		var far [8]byte
		binary.BigEndian.PutUint64(far[:], uint64(e.to))
		st.Put(adjKey("o!", uint64(e.from), uint64(eid)), far[:])
		binary.BigEndian.PutUint64(far[:], uint64(e.from))
		st.Put(adjKey("i!", uint64(e.to), uint64(eid)), far[:])
	}
	got, handled, err := g.AppendNeighborIDs(nil, a, model.Both, "")
	if want := wantNeighborIDs(t, g, a, model.Both, ""); err != nil || !handled || !slices.Equal(got, want) {
		t.Errorf("unlabelled request: got %v (handled %v, err %v), want %v", got, handled, err, want)
	}
	pre := []model.NeighborID{{Edge: 99, Node: 99}}
	got, handled, err = g.AppendNeighborIDs(pre, a, model.Both, "y")
	if handled || err != nil || !slices.Equal(got, pre) {
		t.Errorf("labelled request: got %v, handled %v, err %v; want the prefix alone, unhandled", got, handled, err)
	}
	if want := wantNeighborIDs(t, g, a, model.Both, "y"); len(want) != 1 || want[0].Node != b {
		t.Errorf("Neighbors over unlabelled entries: %v", want)
	}
}

// TestCorruptAdjacencyEntryIsAnError: a truncated adjacency value, or one
// whose label length disagrees with its size, is reported, never a panic.
func TestCorruptAdjacencyEntryIsAnError(t *testing.T) {
	for _, v := range [][]byte{{0, 0, 1}, {0, 0, 0, 0, 0, 0, 0, 2, 9, 'a'}} {
		st := kv.NewMemory()
		g := New(st)
		a, _ := g.AddNode("N", nil)
		st.Put(adjKey("o!", uint64(a), 1), v)
		if _, _, err := g.AppendNeighborIDs(nil, a, model.Out, ""); err == nil {
			t.Errorf("value %v: AppendNeighborIDs accepted it", v)
		}
		if err := g.Neighbors(a, model.Out, func(model.Edge, model.Node) bool { return true }); err == nil {
			t.Errorf("value %v: Neighbors accepted it", v)
		}
	}
}

var errScan = errors.New("scan failed")

type scanFails struct{ kv.Store }

func (scanFails) Scan([]byte, func(k, v []byte) bool) error { return errScan }

// TestAdjacencyScanErrorsSurface: a failed adjacency scan is an error from
// every reader of the range, not an empty list or a zero degree.
func TestAdjacencyScanErrorsSurface(t *testing.T) {
	g := New(scanFails{kv.NewMemory()})
	a, _ := g.AddNode("N", nil)
	if _, err := g.Degree(a, model.Both); !errors.Is(err, errScan) {
		t.Errorf("Degree: err = %v", err)
	}
	if _, _, err := g.AppendNeighborIDs(nil, a, model.Both, ""); !errors.Is(err, errScan) {
		t.Errorf("AppendNeighborIDs: err = %v", err)
	}
	if err := g.Neighbors(a, model.Both, func(model.Edge, model.Node) bool { return true }); !errors.Is(err, errScan) {
		t.Errorf("Neighbors: err = %v", err)
	}
}

// TestAppendNeighborIDsBesideWriters reads one node's id adjacency while
// edges to it are added and removed; run under -race by make race-plan.
func TestAppendNeighborIDsBesideWriters(t *testing.T) {
	g := graphs(t)["disk"]
	hub, _ := g.AddNode("N", nil)
	spoke, _ := g.AddNode("N", nil)
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 200; i++ {
			eid, err := g.AddEdge("l", hub, spoke, nil)
			if err == nil && i%2 == 0 {
				err = g.RemoveEdge(eid)
			}
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	var buf []model.NeighborID
	for reading := true; reading; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			reading = false
		default:
		}
		var err error
		if buf, _, err = g.AppendNeighborIDs(buf[:0], hub, model.Both, "l"); err != nil {
			t.Fatal(err)
		}
		for _, p := range buf {
			if p.Node != spoke {
				t.Fatalf("pair %v does not lead to the spoke %d", p, spoke)
			}
		}
	}
	if got, _, _ := g.AppendNeighborIDs(nil, hub, model.Out, "l"); len(got) != 100 {
		t.Errorf("after the writer: %d out pairs, want 100", len(got))
	}
}
