package diff

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"gdbm/internal/engine"
	"gdbm/internal/kvgraph"
	"gdbm/internal/memgraph"
	"gdbm/internal/model"
	"gdbm/internal/query/stats"
	"gdbm/internal/storage/kv"
)

// patchSubject is one store under the pinned-view differential:
// its mutation surface, its view, its planner statistics and its epoch.
type patchSubject struct {
	name     string
	g        model.MutableGraph
	loadNode func(label string, props model.Properties) (model.NodeID, error)
	loadEdge func(label string, from, to model.NodeID, props model.Properties) (model.EdgeID, error)
	acquire  func() (model.Graph, model.ReleaseFunc, error)
	stats    stats.Provider
	epoch    func() uint64

	nodes []model.NodeID // alive, ascending
	edges []model.Edge   // alive, ascending by ID; From/To only
}

func patchSubjects(t *testing.T) []*patchSubject {
	t.Helper()
	mem := func(name string) *patchSubject {
		g := memgraph.New()
		return &patchSubject{name: name, g: g, loadNode: g.AddNode, loadEdge: g.AddEdge, acquire: g.AcquireView, stats: g, epoch: g.Epoch}
	}
	kvg := func(name string, st kv.Store) *patchSubject {
		g := kvgraph.New(st)
		return &patchSubject{name: name, g: g, loadNode: g.AddNode, loadEdge: g.AddEdge, acquire: g.AcquireView, stats: g, epoch: g.Epoch}
	}
	disk, err := kv.OpenDisk(filepath.Join(t.TempDir(), "patch.pg"), 2048)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.Close() })
	e, err := engine.Open("infinigraph", engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	ld := e.(engine.Loader) // declares labels on the typed archetype
	store := e.(interface{ Graph() model.MutableGraph }).Graph()
	return []*patchSubject{
		mem("memgraph"),
		kvg("kvgraph-mem", kv.NewMemory()),
		kvg("kvgraph-disk", disk),
		{
			name: "infinigraph", g: e.(model.MutableGraph), loadNode: ld.LoadNode, loadEdge: ld.LoadEdge,
			acquire: e.(engine.Concurrent).AcquireSnapshot, stats: e.(stats.Provider),
			epoch: store.(interface{ Epoch() uint64 }).Epoch,
		},
	}
}

func (s *patchSubject) addNode(t *testing.T, rng *rand.Rand) {
	id, err := s.loadNode(nodeLabels[rng.Intn(len(nodeLabels))], model.Props("rank", rng.Intn(40)))
	if err != nil {
		t.Fatalf("add node: %v", err)
	}
	s.nodes = append(s.nodes, id)
}

func (s *patchSubject) addEdge(t *testing.T, rng *rand.Rand, from, to model.NodeID) {
	id, err := s.loadEdge(edgeLabels[rng.Intn(len(edgeLabels))], from, to, nil)
	if err != nil {
		t.Fatalf("add edge %d->%d: %v", from, to, err)
	}
	s.edges = append(s.edges, model.Edge{ID: id, From: from, To: to})
}

// pickNode favours the IDs around the first block boundary and the
// partially filled last block.
func (s *patchSubject) pickNode(rng *rand.Rand) int {
	switch rng.Intn(4) {
	case 0:
		for i, id := range s.nodes {
			if id >= 510 {
				return min(i+rng.Intn(5), len(s.nodes)-1)
			}
		}
	case 1:
		return len(s.nodes) - 1 - rng.Intn(min(8, len(s.nodes)))
	}
	return rng.Intn(len(s.nodes))
}

func (s *patchSubject) mutate(t *testing.T, rng *rand.Rand) {
	switch op := rng.Intn(12); {
	case op < 2:
		s.addNode(t, rng)
	case op < 5:
		from := s.nodes[s.pickNode(rng)]
		to := s.nodes[s.pickNode(rng)]
		if rng.Intn(6) == 0 {
			to = from // self-loop
		}
		s.addEdge(t, rng, from, to)
	case op < 6 && len(s.edges) > 0:
		i := rng.Intn(len(s.edges))
		if err := s.g.RemoveEdge(s.edges[i].ID); err != nil {
			t.Fatalf("RemoveEdge: %v", err)
		}
		s.edges = append(s.edges[:i], s.edges[i+1:]...)
	case op < 7 && len(s.nodes) > 8:
		// The cascade removes edges that live in whatever edge blocks they
		// were allocated in and touches rows of nodes in other node blocks.
		i := s.pickNode(rng)
		id := s.nodes[i]
		if err := s.g.RemoveNode(id); err != nil {
			t.Fatalf("RemoveNode: %v", err)
		}
		s.nodes = append(s.nodes[:i], s.nodes[i+1:]...)
		kept := s.edges[:0]
		for _, e := range s.edges {
			if e.From != id && e.To != id {
				kept = append(kept, e)
			}
		}
		s.edges = kept
	case op < 10:
		id := s.nodes[s.pickNode(rng)]
		if err := s.g.SetNodeProp(id, "rank", model.Int(int64(rng.Intn(40)))); err != nil {
			t.Fatalf("SetNodeProp: %v", err)
		}
	case len(s.edges) > 0:
		id := s.edges[rng.Intn(len(s.edges))].ID
		if err := s.g.SetEdgeProp(id, "w", model.Int(int64(rng.Intn(40)))); err != nil {
			t.Fatalf("SetEdgeProp: %v", err)
		}
	}
}

// TestPatchedSnapshotDifferential is the proof that copy-on-write pinning
// never changes what a reader sees. Seeded random mutations (replay with
// -seed=N) run over every store that pins views; after every step the
// view pinned at rest must render exactly like the store itself, and the
// view pinned before the step must still render what it rendered then.
func TestPatchedSnapshotDifferential(t *testing.T) {
	seed := SeedOrDefault(0x9A7C4)
	for _, s := range patchSubjects(t) {
		t.Run(s.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 530; i++ { // one full block and a partial one
				s.addNode(t, rng)
			}
			for i := 0; i < 540; i++ {
				s.addEdge(t, rng, s.nodes[s.pickNode(rng)], s.nodes[s.pickNode(rng)])
			}
			prev, releasePrev, err := s.acquire()
			if err != nil {
				t.Fatal(err)
			}
			defer func() { releasePrev() }()
			prevRender := renderGraph(t, prev)
			steps := 40
			if s.name == "kvgraph-disk" {
				steps = 12 // the oracle reads the whole store through the btree each step
			}
			for step := 0; step < steps; step++ {
				for k := rng.Intn(3); k >= 0; k-- {
					s.mutate(t, rng)
				}
				cur, release, err := s.acquire()
				if err != nil {
					t.Fatal(err)
				}
				got := renderGraph(t, cur)
				if want := renderGraph(t, s.g); got != want {
					t.Fatalf("seed %d step %d: pinned view differs from the store at rest\npinned:\n%s\nstore:\n%s\n(replay with -seed=%d)",
						seed, step, got, want, seed)
				}
				if again := renderGraph(t, prev); again != prevRender {
					t.Fatalf("seed %d step %d: the view pinned before the step changed (replay with -seed=%d)", seed, step, seed)
				}
				releasePrev()
				prev, releasePrev, prevRender = cur, release, got
			}
		})
	}
}

// TestPlanStatsDriftBound holds every store's planner statistics to the
// drift rule over the same seeded steps as TestPatchedSnapshotDifferential
// (replay with -seed=N). After every step the statistics PlanStats serves
// are at most (Nodes + Edges)/16 mutations old, they are rebuilt at the
// first step that takes the published ones past that bound and not
// before, and every newly published Stats is exactly stats.Build of a view
// pinned at its epoch.
func TestPlanStatsDriftBound(t *testing.T) {
	seed := SeedOrDefault(0x9A7C4)
	for _, s := range patchSubjects(t) {
		t.Run(s.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 530; i++ {
				s.addNode(t, rng)
			}
			for i := 0; i < 540; i++ {
				s.addEdge(t, rng, s.nodes[s.pickNode(rng)], s.nodes[s.pickNode(rng)])
			}
			var prev *stats.Stats
			rebuilds := 0
			for step := 0; step < 200; step++ {
				if step > 0 {
					for k := rng.Intn(3); k >= 0; k-- {
						s.mutate(t, rng)
					}
				}
				epoch := s.epoch()
				st, err := s.stats.PlanStats()
				if err != nil {
					t.Fatal(err)
				}
				bound := uint64(st.Nodes+st.Edges) / 16
				if drift := (epoch - st.Epoch) / 2; drift > bound {
					t.Fatalf("seed %d step %d: served statistics %d mutations old, bound %d (replay with -seed=%d)",
						seed, step, drift, bound, seed)
				}
				past := prev == nil || (epoch-prev.Epoch)/2 > uint64(prev.Nodes+prev.Edges)/16
				if past != (st != prev) {
					t.Fatalf("seed %d step %d: published statistics past the bound: %v, rebuilt: %v (replay with -seed=%d)",
						seed, step, past, st != prev, seed)
				}
				if st == prev {
					continue
				}
				rebuilds++
				view, release, err := s.acquire()
				if err != nil {
					t.Fatal(err)
				}
				if st.Epoch != epoch {
					t.Fatalf("step %d: statistics stamped %d on a quiescent store at %d", step, st.Epoch, epoch)
				}
				built, err := stats.Build(view, st.Epoch)
				release()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(st, built) {
					t.Fatalf("seed %d step %d: published statistics differ from stats.Build of the view\npublished: %+v\nbuilt:     %+v\n(replay with -seed=%d)",
						seed, step, st, built, seed)
				}
				prev = st
			}
			t.Logf("%d rebuilds in 200 steps", rebuilds)
			if rebuilds < 3 {
				t.Fatalf("%d rebuilds in 200 steps: the bound was never crossed twice, the test shows nothing", rebuilds)
			}
		})
	}
}

// incidentIDs returns the ids of g's edges incident to id in dir, in the
// order g's Neighbors yields them.
func incidentIDs(t *testing.T, g model.Graph, id model.NodeID, dir model.Direction) []model.EdgeID {
	t.Helper()
	var eids []model.EdgeID
	if err := g.Neighbors(id, dir, func(e model.Edge, _ model.Node) bool {
		eids = append(eids, e.ID)
		return true
	}); err != nil {
		t.Fatalf("Neighbors(%d, %v): %v", id, dir, err)
	}
	return eids
}

// TestViewEnumeratesLiveOrder: on a quiescent store, a pinned view's
// Neighbors yields exactly what the live store's does, in the same order,
// after removals in the middle of incident lists — the case where a store
// that reorders on removal and a view that sorts would disagree.
func TestViewEnumeratesLiveOrder(t *testing.T) {
	seed := SeedOrDefault(0x0DE5)
	for _, s := range patchSubjects(t) {
		t.Run(s.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				s.addNode(t, rng)
			}
			for i := 0; i < 240; i++ { // ten hubs: long out lists, in lists of about six
				s.addEdge(t, rng, s.nodes[rng.Intn(10)], s.nodes[rng.Intn(len(s.nodes))])
			}
			_, release, err := s.acquire() // pin, so the writes below clone what they touch
			if err != nil {
				t.Fatal(err)
			}
			release()

			// mid reports whether eid sits strictly inside a list of three
			// or more of id's incident edges in dir.
			mid := func(id model.NodeID, dir model.Direction, eid model.EdgeID) bool {
				eids := incidentIDs(t, s.g, id, dir)
				i := slices.Index(eids, eid)
				return len(eids) >= 3 && i > 0 && i < len(eids)-1
			}
			mids := 0
			for k := 0; k < 60; k++ {
				i := rng.Intn(len(s.edges))
				e := s.edges[i]
				if mid(e.From, model.Out, e.ID) || mid(e.To, model.In, e.ID) {
					mids++
				}
				if err := s.g.RemoveEdge(e.ID); err != nil {
					t.Fatalf("RemoveEdge: %v", err)
				}
				s.edges = slices.Delete(s.edges, i, i+1)
			}
			for k := 0; k < 3; k++ { // cascades through other nodes' lists
				i := 10 + rng.Intn(len(s.nodes)-10)
				if err := s.g.RemoveNode(s.nodes[i]); err != nil {
					t.Fatalf("RemoveNode: %v", err)
				}
				s.nodes = slices.Delete(s.nodes, i, i+1)
			}
			if mids == 0 {
				t.Fatal("no removal hit the middle of a list of three or more: the test shows nothing")
			}

			view, release, err := s.acquire()
			if err != nil {
				t.Fatal(err)
			}
			defer release()
			for _, id := range s.nodes {
				for _, dir := range []model.Direction{model.Out, model.In, model.Both} {
					live, pinned := incidentIDs(t, s.g, id, dir), incidentIDs(t, view, id, dir)
					if !slices.Equal(pinned, live) {
						t.Fatalf("node %d %v: view enumerates %v, live store %v (%d mid-list removals; replay with -seed=%d)",
							id, dir, pinned, live, mids, seed)
					}
				}
			}
		})
	}
}
