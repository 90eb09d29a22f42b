package adj

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"gdbm/internal/model"
)

// mapSource is a toy Source over plain maps, standing in for a store with
// its lock held.
type mapSource struct {
	nodes         map[model.NodeID]model.Node
	edges         map[model.EdgeID]model.Edge
	maxN          model.NodeID
	maxE          model.EdgeID
	outIdx, inIdx map[model.NodeID][]model.EdgeID // see incident
	// calls counts the reads the builder issued (patch_test.go).
	calls struct{ node, edge, out, in int }
}

func newMapSource() *mapSource {
	return &mapSource{
		nodes: map[model.NodeID]model.Node{},
		edges: map[model.EdgeID]model.Edge{},
	}
}

func (s *mapSource) addNode(label string) model.NodeID {
	s.maxN++
	s.nodes[s.maxN] = model.Node{ID: s.maxN, Label: label}
	return s.maxN
}

func (s *mapSource) addEdge(label string, from, to model.NodeID) model.EdgeID {
	s.maxE++
	s.edges[s.maxE] = model.Edge{ID: s.maxE, Label: label, From: from, To: to}
	s.outIdx, s.inIdx = nil, nil
	return s.maxE
}

func (s *mapSource) MaxNodeID() (model.NodeID, error) { return s.maxN, nil }
func (s *mapSource) MaxEdgeID() (model.EdgeID, error) { return s.maxE, nil }

func (s *mapSource) NodeByID(id model.NodeID) (model.Node, bool, error) {
	s.calls.node++
	n, ok := s.nodes[id]
	return n, ok, nil
}

func (s *mapSource) EdgeByID(id model.EdgeID) (model.Edge, bool, error) {
	s.calls.edge++
	e, ok := s.edges[id]
	return e, ok, nil
}

// incident serves the adjacency lists, ascending as the Source contract
// asks, from an index built on first use; whoever changes edges after that
// drops it (toyStore does).
func (s *mapSource) incident() (out, in map[model.NodeID][]model.EdgeID) {
	if s.outIdx == nil {
		s.outIdx, s.inIdx = map[model.NodeID][]model.EdgeID{}, map[model.NodeID][]model.EdgeID{}
		for eid, e := range s.edges {
			s.outIdx[e.From] = append(s.outIdx[e.From], eid)
			s.inIdx[e.To] = append(s.inIdx[e.To], eid)
		}
		for _, idx := range []map[model.NodeID][]model.EdgeID{s.outIdx, s.inIdx} {
			for _, eids := range idx {
				slices.Sort(eids)
			}
		}
	}
	return s.outIdx, s.inIdx
}

func (s *mapSource) OutEdges(id model.NodeID) ([]model.EdgeID, error) {
	s.calls.out++
	out, _ := s.incident()
	return out[id], nil
}

func (s *mapSource) InEdges(id model.NodeID) ([]model.EdgeID, error) {
	s.calls.in++
	_, in := s.incident()
	return in[id], nil
}

// dump renders a snapshot into a canonical string: every record plus every
// adjacency row, in enumeration order.
func dump(t *testing.T, g model.Graph) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "order=%d size=%d\n", g.Order(), g.Size())
	err := g.Nodes(func(n model.Node) bool {
		fmt.Fprintf(&b, "n%d:%s%v", n.ID, n.Label, n.Props)
		for _, dir := range []model.Direction{model.Out, model.In, model.Both} {
			d, err := g.Degree(n.ID, dir)
			if err != nil {
				t.Fatalf("Degree(%d,%v): %v", n.ID, dir, err)
			}
			fmt.Fprintf(&b, " %s=%d[", dir, d)
			err = g.Neighbors(n.ID, dir, func(e model.Edge, far model.Node) bool {
				fmt.Fprintf(&b, " e%d>n%d", e.ID, far.ID)
				return true
			})
			if err != nil {
				t.Fatalf("Neighbors(%d,%v): %v", n.ID, dir, err)
			}
			b.WriteString(" ]")
		}
		b.WriteString("\n")
		return true
	})
	if err != nil {
		t.Fatalf("Nodes: %v", err)
	}
	err = g.Edges(func(e model.Edge) bool {
		fmt.Fprintf(&b, "e%d:%s %d->%d%v\n", e.ID, e.Label, e.From, e.To, e.Props)
		return true
	})
	if err != nil {
		t.Fatalf("Edges: %v", err)
	}
	return b.String()
}

func build(t *testing.T, src Source) *Snapshot {
	t.Helper()
	s, err := Build(src, 0)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return s
}

func TestSnapshotBasics(t *testing.T) {
	src := newMapSource()
	a := src.addNode("a")
	bn := src.addNode("b")
	c := src.addNode("c")
	ab := src.addEdge("ab", a, bn)
	bc := src.addEdge("bc", bn, c)
	loop := src.addEdge("loop", c, c)

	s := build(t, src)
	if s.Order() != 3 || s.Size() != 3 {
		t.Fatalf("Order/Size = %d/%d, want 3/3", s.Order(), s.Size())
	}
	n, err := s.Node(bn)
	if err != nil || n.Label != "b" {
		t.Fatalf("Node(b) = %+v, %v", n, err)
	}
	if _, err := s.Node(99); err == nil {
		t.Fatal("Node(99) should not exist")
	}
	e, err := s.Edge(ab)
	if err != nil || e.From != a || e.To != bn {
		t.Fatalf("Edge(ab) = %+v, %v", e, err)
	}
	if _, err := s.Edge(99); err == nil {
		t.Fatal("Edge(99) should not exist")
	}
	if err := s.Neighbors(99, model.Both, func(model.Edge, model.Node) bool { return true }); err == nil {
		t.Fatal("Neighbors(99) should fail")
	}
	if _, err := s.Degree(99, model.Both); err == nil {
		t.Fatal("Degree(99) should fail")
	}

	// b: out {bc}, in {ab}.
	for _, tc := range []struct {
		dir  model.Direction
		want int
	}{{model.Out, 1}, {model.In, 1}, {model.Both, 2}} {
		d, err := s.Degree(bn, tc.dir)
		if err != nil || d != tc.want {
			t.Fatalf("Degree(b,%v) = %d, %v; want %d", tc.dir, d, err, tc.want)
		}
	}
	var hops []string
	if err := s.Neighbors(bn, model.Both, func(e model.Edge, far model.Node) bool {
		hops = append(hops, fmt.Sprintf("e%d>n%d", e.ID, far.ID))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	// Out rows first (bc -> c), then in rows (ab's far end is a).
	if got := strings.Join(hops, " "); got != fmt.Sprintf("e%d>n%d e%d>n%d", bc, c, ab, a) {
		t.Fatalf("Neighbors(b, Both) order = %q", got)
	}

	// The self-loop is seen once per direction.
	d, err := s.Degree(c, model.Both)
	if err != nil || d != 3 { // in: bc + loop, out: loop
		t.Fatalf("Degree(c, Both) = %d, %v; want 3", d, err)
	}
	seen := 0
	if err := s.Neighbors(c, model.Both, func(e model.Edge, _ model.Node) bool {
		if e.ID == loop {
			seen++
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if seen != 2 {
		t.Fatalf("self-loop visited %d times under Both, want 2", seen)
	}

	// Early termination stops enumeration without error.
	calls := 0
	if err := s.Nodes(func(model.Node) bool { calls++; return false }); err != nil || calls != 1 {
		t.Fatalf("Nodes early stop: calls=%d err=%v", calls, err)
	}
}

func TestVersionedReuseAndInvalidation(t *testing.T) {
	src := newMapSource()
	for i := 0; i < 1200; i++ { // three node blocks
		src.addNode("x")
	}
	src.addEdge("e", 1, 600)

	var v Versioned
	epoch := uint64(0)
	s1, rel1, err := v.Pin(epoch, src)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Order() != 1200 || s1.Size() != 1 {
		t.Fatalf("s1 order/size = %d/%d", s1.Order(), s1.Size())
	}

	// A mutation in block 0 must rebuild exactly that node block.
	src.nodes[5] = model.Node{ID: 5, Label: "renamed"}
	epoch += 2
	v.MarkNode(5)
	s2, rel2, err := v.Pin(epoch, src)
	if err != nil {
		t.Fatal(err)
	}
	if s2 == s1 {
		t.Fatal("stale snapshot re-pinned after mutation")
	}
	if s2.nb[0] == s1.nb[0] {
		t.Fatal("dirty node block 0 was reused")
	}
	if s2.nb[1] != s1.nb[1] || s2.nb[2] != s1.nb[2] {
		t.Fatal("clean node blocks were not shared")
	}
	if s2.eb[0] != s1.eb[0] {
		t.Fatal("clean edge block was not shared")
	}
	n, err := s2.Node(5)
	if err != nil || n.Label != "renamed" {
		t.Fatalf("rebuilt block misses mutation: %+v, %v", n, err)
	}
	if old, err := s1.Node(5); err != nil || old.Label != "x" {
		t.Fatalf("pinned old snapshot changed: %+v, %v", old, err)
	}

	// TryPin: hit at the current epoch (success == non-nil release), miss
	// on stale or odd epochs.
	if s, rel := v.TryPin(epoch); rel == nil || s != s2 {
		t.Fatal("TryPin missed the current epoch")
	} else {
		rel()
	}
	if _, rel := v.TryPin(epoch + 2); rel != nil {
		t.Fatal("TryPin hit a stale epoch")
	}
	if _, rel := v.TryPin(epoch + 1); rel != nil {
		t.Fatal("TryPin hit an odd (mid-mutation) epoch")
	}

	// MarkAll forces a full rebuild: no block sharing.
	v.MarkAll()
	epoch += 2
	s3, rel3, err := v.Pin(epoch, src)
	if err != nil {
		t.Fatal(err)
	}
	if s3.nb[1] == s2.nb[1] {
		t.Fatal("MarkAll did not invalidate clean blocks")
	}

	// Release discipline: idempotent, counts reach zero.
	rel1()
	rel1()
	rel2()
	rel3()
	for _, s := range []*Snapshot{s1, s2, s3} {
		if p := s.Pins(); p != 0 {
			t.Fatalf("pins = %d after release, want 0", p)
		}
	}
}

func TestDegreeMatchesEnumeration(t *testing.T) {
	src := newMapSource()
	const n = 300
	for i := 0; i < n; i++ {
		src.addNode("x")
	}
	for i := 0; i < 4*n; i++ {
		src.addEdge("e", model.NodeID(i%n+1), model.NodeID((i*31+7)%n+1))
	}
	s := build(t, src)
	for id := model.NodeID(1); id <= n; id++ {
		for _, dir := range []model.Direction{model.Out, model.In, model.Both} {
			d, err := s.Degree(id, dir)
			if err != nil {
				t.Fatal(err)
			}
			count := 0
			var last model.EdgeID
			lastOut := true
			if err := s.Neighbors(id, dir, func(e model.Edge, _ model.Node) bool {
				isOut := e.From == id && (dir == model.Out || (dir == model.Both && count < mustDegree(t, s, id, model.Out)))
				if count > 0 && isOut == lastOut && e.ID < last {
					t.Fatalf("node %d dir %v: edge IDs not ascending within a row", id, dir)
				}
				last, lastOut = e.ID, isOut
				count++
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if count != d {
				t.Fatalf("node %d dir %v: degree %d but %d neighbors", id, dir, d, count)
			}
		}
	}
}

func mustDegree(t *testing.T, g model.Graph, id model.NodeID, dir model.Direction) int {
	t.Helper()
	d, err := g.Degree(id, dir)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestBuildEmpty(t *testing.T) {
	s := build(t, newMapSource())
	if s.Order() != 0 || s.Size() != 0 {
		t.Fatalf("empty build: order=%d size=%d", s.Order(), s.Size())
	}
	if err := s.Nodes(func(model.Node) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Node(1); err == nil {
		t.Fatal("Node(1) on empty snapshot should fail")
	}
}

func TestRowsRoundTrip(t *testing.T) {
	// Direct row codec check with adversarial ID spreads; node 0 is a
	// vacant slot, whose row is empty without a read.
	sets := [][]model.EdgeID{
		{},
		{1},
		{1, 2, 3},
		{7, 700, 70000, 7000000},
	}
	nodes := make([]model.Node, len(sets)+1)
	for i := 1; i < len(nodes); i++ {
		nodes[i] = model.Node{ID: model.NodeID(i)}
	}
	incident := func(id model.NodeID) ([]model.EdgeID, error) {
		if id == 0 {
			t.Fatal("a vacant slot's row was read")
		}
		return sets[id-1], nil
	}
	r, err := spliceRows(rows{}, incident, nodes, upTo(0, blockMask), markOut)
	if err != nil {
		t.Fatal(err)
	}
	for i := range nodes {
		var want []model.EdgeID
		if i > 0 {
			want = sets[i-1]
		}
		if d := r.degree(i); d != len(want) {
			t.Fatalf("row %d degree = %d, want %d", i, d, len(want))
		}
		var got []model.EdgeID
		r.forEach(i, func(e model.EdgeID) bool { got = append(got, e); return true })
		if !slices.Equal(got, want) {
			t.Fatalf("row %d = %v, want %v", i, got, want)
		}
	}

	// A list that does not ascend strictly is refused, not reordered.
	for _, bad := range [][]model.EdgeID{{5, 5, 9}, {9, 5}, {0}} {
		_, err := spliceRows(rows{}, func(model.NodeID) ([]model.EdgeID, error) { return bad, nil }, nodes[:2], upTo(0, blockMask), markOut)
		if err == nil {
			t.Errorf("row %v encoded without an error", bad)
		}
	}
}
