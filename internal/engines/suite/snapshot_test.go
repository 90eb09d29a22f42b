package suite

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"gdbm/internal/algo"
	"gdbm/internal/engine"
	"gdbm/internal/engine/capability"
	"gdbm/internal/gen"
	"gdbm/internal/model"
	"gdbm/internal/query/stats"
)

// TestEssentialsHonorsCancellation holds the context contract of the
// Table VII closures over all nine engines: the context handed to
// Essentials must reach every closure whose kernel has a cancellable form
// instead of being dropped, or severed by a fresh background root, at the
// dispatch site. KNeighborhood, FixedLengthPaths, ShortestPath and
// Summarization run Ctx kernels (or check ctx before their own scan) on
// every engine that offers them; Summarization is asked both with a label
// and without one, because an engine may dispatch the two to different
// kernel calls. Every algo.*Ctx call in an engine package sits on one of
// these paths, so a context.Background() at any of them fails here.
func TestEssentialsHonorsCancellation(t *testing.T) {
	for name, e := range openAll(t) {
		t.Run(name, func(t *testing.T) {
			ids := seed(t, e)

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			es := e.Essentials(ctx)
			wantCanceled := func(class string, err error) {
				t.Helper()
				if !errors.Is(err, context.Canceled) {
					t.Errorf("%s under cancelled ctx: err = %v, want context.Canceled", class, err)
				}
			}
			if es.KNeighborhood != nil {
				_, err := es.KNeighborhood(ids[0], 2)
				wantCanceled("KNeighborhood", err)
			}
			if es.FixedLengthPaths != nil {
				_, err := es.FixedLengthPaths(ids[0], ids[2], 2)
				wantCanceled("FixedLengthPaths", err)
			}
			if es.ShortestPath != nil {
				_, err := es.ShortestPath(ids[0], ids[3])
				wantCanceled("ShortestPath", err)
			}
			if es.Summarization != nil {
				_, err := es.Summarization(algo.AggCount, "Thing", "")
				wantCanceled("Summarization", err)
				_, err = es.Summarization(algo.AggCount, "", "")
				wantCanceled("unlabelled Summarization", err)
			}

			// The cancelled run must not have wedged the engine (or left a
			// cancelled answer in a result cache): a live context still
			// answers, and with the right values.
			live := e.Essentials(context.Background())
			if live.KNeighborhood != nil {
				nb, err := live.KNeighborhood(ids[0], 2)
				if err != nil || len(nb) < 4 {
					t.Errorf("KNeighborhood after cancelled run = %v, %v", nb, err)
				}
			}
			if live.FixedLengthPaths != nil {
				paths, err := live.FixedLengthPaths(ids[0], ids[2], 2)
				if err != nil || len(paths) != 1 {
					t.Errorf("FixedLengthPaths after cancelled run = %v, %v", paths, err)
				}
			}
			if live.ShortestPath != nil {
				p, err := live.ShortestPath(ids[0], ids[3])
				if err != nil || p.Len() != 3 {
					t.Errorf("ShortestPath after cancelled run = %v, %v", p, err)
				}
			}
			if live.Summarization != nil {
				v, err := live.Summarization(algo.AggCount, "Thing", "")
				if err != nil {
					t.Fatalf("Summarization after cancelled run: %v", err)
				}
				if n, _ := v.AsInt(); n < 5 {
					t.Errorf("count after cancelled run = %v", v)
				}
			}
		})
	}
}

// TestConcurrentSummarizationMatchesPinnedFold pins the Concurrent
// engines' SUM and AVG to the sequential fold: Summarization must answer
// exactly what algo.AggregateNodePropCtx answers over a view pinned from the
// same engine. The 1 000 fractional weights make the float sum sensitive to
// association, so a fold split into per-CPU chunks would differ in the last
// bit and make the answer depend on the host.
func TestConcurrentSummarizationMatchesPinnedFold(t *testing.T) {
	ctx := context.Background()
	for name, e := range openAll(t) {
		con, ok := e.(engine.Concurrent)
		if !ok {
			continue
		}
		t.Run(name, func(t *testing.T) {
			ids, err := gen.Generate(gen.Spec{Kind: gen.RMAT, Nodes: 1000, EdgesPerNode: 4, Seed: 7}, e.(engine.Loader))
			if err != nil {
				t.Fatal(err)
			}
			g := e.(model.MutableGraph)
			for i, id := range ids {
				if err := g.SetNodeProp(id, "weight", model.Float(0.37*float64(i))); err != nil {
					t.Fatal(err)
				}
			}
			view, release, err := con.AcquireSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			defer release()
			es := e.Essentials(ctx)
			for _, kind := range []algo.AggKind{algo.AggSum, algo.AggAvg} {
				want, err := algo.AggregateNodePropCtx(ctx, view, "", "weight", kind)
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := want.AsFloat(); !ok {
					t.Fatalf("%s over the pinned view = %v, want a number", kind, want)
				}
				got, err := es.Summarization(kind, "", "weight")
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Errorf("Summarization(%s) = %v, sequential fold over the pinned view = %v", kind, got, want)
				}
			}
		})
	}
}

// seedChain loads a chain graph of n nodes for the snapshot-cost tests.
func seedChain(tb testing.TB, e engine.Engine, n int) {
	tb.Helper()
	l, ok := e.(engine.Loader)
	if !ok {
		tb.Fatalf("%s does not implement Loader", e.Name())
	}
	ids := make([]model.NodeID, n)
	for i := 0; i < n; i++ {
		id, err := l.LoadNode("Thing", model.Props("rank", i))
		if err != nil {
			tb.Fatal(err)
		}
		ids[i] = id
	}
	for i := 0; i+1 < n; i++ {
		if _, err := l.LoadEdge("next", ids[i], ids[i+1], nil); err != nil {
			tb.Fatal(err)
		}
	}
}

// acquireWarm performs one acquire/release cycle so the store's versioned
// view is built; subsequent acquisitions take the O(1) pin fast path.
func acquireWarm(tb testing.TB, con engine.Concurrent) {
	tb.Helper()
	g, release, err := con.AcquireSnapshot()
	if err != nil {
		tb.Fatal(err)
	}
	if g.Order() == 0 {
		tb.Fatal("warm snapshot is empty")
	}
	release()
}

// TestAcquireSnapshotAllocationsFlat pins the O(1) contract: once the
// versioned view is built, acquiring a snapshot allocates a small constant
// amount regardless of graph size. The deep-copy implementation this
// replaced allocated O(order+size) per acquisition.
func TestAcquireSnapshotAllocationsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a 100k-node graph")
	}
	allocsAt := func(n int) float64 {
		e, err := engine.Open("neograph", engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		seedChain(t, e, n)
		con := e.(engine.Concurrent)
		acquireWarm(t, con)
		return testing.AllocsPerRun(50, func() {
			_, release, err := con.AcquireSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			release()
		})
	}
	small := allocsAt(1_000)
	mid := allocsAt(10_000)
	large := allocsAt(100_000)
	t.Logf("allocs per warm AcquireSnapshot: 1k=%.0f 10k=%.0f 100k=%.0f", small, mid, large)
	if small > 16 {
		t.Errorf("warm AcquireSnapshot allocates %.0f objects on a 1k graph; want a small constant", small)
	}
	if mid > small || large > small {
		t.Errorf("AcquireSnapshot allocations grow with graph size: 1k=%.0f 10k=%.0f 100k=%.0f", small, mid, large)
	}
}

// BenchmarkAcquireSnapshot measures the warm acquire/release cycle at
// three graph sizes. Flat ns/op and B/op across sizes is the O(1) MVCC
// claim; regressions back toward O(n) deep copying show up as ns/op
// scaling with n.
func BenchmarkAcquireSnapshot(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			e, err := engine.Open("neograph", engine.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			seedChain(b, e, n)
			con := e.(engine.Concurrent)
			acquireWarm(b, con)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, release, err := con.AcquireSnapshot()
				if err != nil {
					b.Fatal(err)
				}
				release()
			}
		})
	}
}

// pinWriteStore opens the neograph engine over memgraph (dir false) or
// over kvgraph on a disk store, loads a chain of n nodes and warms the
// view and the planner statistics: the state every write then perturbs.
func pinWriteStore(tb testing.TB, dir bool, n int) (model.MutableGraph, engine.Concurrent, stats.Provider) {
	tb.Helper()
	opts := engine.Options{}
	if dir {
		opts.Dir = tb.TempDir()
	}
	e, err := engine.Open("neograph", opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { e.Close() })
	seedChain(tb, e, n)
	con := e.(engine.Concurrent)
	_, release, err := con.AcquireSnapshot()
	if err != nil {
		tb.Fatal(err)
	}
	release()
	sp := e.(stats.Provider)
	if _, err := sp.PlanStats(); err != nil {
		tb.Fatal(err)
	}
	return e.(model.MutableGraph), con, sp
}

// TestPinAfterWriteAllocsFlat pins the cost model of the statement that
// follows a write: its planner statistics allocate nothing that grows with
// the graph. Inside the drift bound PlanStats serves the published
// statistics, so what a write and PlanStats allocate is the write's own,
// the same at 1k nodes as at 100k.
func TestPinAfterWriteAllocsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a 100k-node graph")
	}
	allocsAt := func(n int) float64 {
		g, _, sp := pinWriteStore(t, false, n)
		v := int64(0)
		return testing.AllocsPerRun(20, func() {
			v++
			if err := g.SetNodeProp(7, "hits", model.Int(v)); err != nil {
				t.Fatal(err)
			}
			if _, err := sp.PlanStats(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := allocsAt(1_000)
	large := allocsAt(100_000)
	t.Logf("allocs per write + pin + PlanStats: 1k=%.0f 100k=%.0f", small, large)
	if large > small {
		t.Errorf("pin + PlanStats after a write allocate with graph size: 1k=%.0f 100k=%.0f", small, large)
	}
}

// TestPatchAfterWriteAllocsFlat pins the cost model of the first pin after
// a write: patching the published view allocates for the one block the
// write touched, not for the graph. From 1k to 100k nodes only the
// snapshot's block directory gets longer; the number of allocations stays
// the same.
func TestPatchAfterWriteAllocsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a 100k-node graph")
	}
	allocsAt := func(n int) float64 {
		g, con, _ := pinWriteStore(t, false, n)
		v := int64(0)
		return testing.AllocsPerRun(20, func() {
			v++
			if err := g.SetNodeProp(7, "hits", model.Int(v)); err != nil {
				t.Fatal(err)
			}
			_, release, err := con.AcquireSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			release()
		})
	}
	small := allocsAt(1_000)
	large := allocsAt(100_000)
	t.Logf("allocs per write + pin: 1k=%.0f 100k=%.0f", small, large)
	if large > small {
		t.Errorf("a pin after a write allocates with graph size: 1k=%.0f 100k=%.0f", small, large)
	}
}

// TestMirrorPinAfterWriteAllocsFlat is TestPatchAfterWriteAllocsFlat on
// disk: there a pin freezes kvgraph's memgraph mirror, which the write
// kept current, so a write and the pin after it allocate for the block the
// write touched, the same at 20 000 nodes as at 1 000.
func TestMirrorPinAfterWriteAllocsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a 20k-node graph on disk")
	}
	allocsAt := func(n int) float64 {
		g, con, _ := pinWriteStore(t, true, n)
		v := int64(0)
		return testing.AllocsPerRun(20, func() {
			v++
			if err := g.SetNodeProp(7, "hits", model.Int(v)); err != nil {
				t.Fatal(err)
			}
			_, release, err := con.AcquireSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			release()
		})
	}
	small := allocsAt(1_000)
	large := allocsAt(20_000)
	t.Logf("allocs per disk write + pin: 1k=%.0f 20k=%.0f", small, large)
	if large != small {
		t.Errorf("a pin after a disk write allocates with graph size: 1k=%.0f 20k=%.0f", small, large)
	}
}

// BenchmarkPinAfterWrite and BenchmarkPlanStatsAfterWrite time the cold
// path of the snapshot and statistics publishers on a graph the size of
// the end-to-end benchmark's rw_disk workload. Each iteration is one
// SetNodeProp (it is what makes the path cold, and is a few µs) followed
// by the measured call.
func BenchmarkPinAfterWrite(b *testing.B) {
	benchAfterWrite(b, func(con engine.Concurrent, _ stats.Provider) error {
		_, release, err := con.AcquireSnapshot()
		if err == nil {
			release()
		}
		return err
	})
}

func BenchmarkPlanStatsAfterWrite(b *testing.B) {
	benchAfterWrite(b, func(_ engine.Concurrent, sp stats.Provider) error {
		_, err := sp.PlanStats()
		return err
	})
}

func benchAfterWrite(b *testing.B, measured func(engine.Concurrent, stats.Provider) error) {
	for _, store := range []string{"memgraph", "kvgraph-disk"} {
		b.Run(store, func(b *testing.B) {
			g, con, sp := pinWriteStore(b, store == "kvgraph-disk", 6000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := g.SetNodeProp(model.NodeID(i%6000+1), "hits", model.Int(int64(i))); err != nil {
					b.Fatal(err)
				}
				if err := measured(con, sp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestRejectedMutationInvalidatesNothing holds every Concurrent engine, in
// memory and on disk, to the store-level rule: a mutation rejected for a
// missing target changes nothing, so a snapshot pinned before it must be
// the one a later AcquireSnapshot returns. Each rejection keeps its kind:
// not found, except that an engine declaring referential integrity
// rejects an edge to a missing node as a constraint violation.
func TestRejectedMutationInvalidatesNothing(t *testing.T) {
	for _, name := range engine.Names() {
		prof, ok := capability.ForEngine(name)
		if !ok || !prof.Allows(capability.Concurrent) {
			continue
		}
		for _, cfg := range []string{"mem", "dir"} {
			t.Run(name+"/"+cfg, func(t *testing.T) {
				opts := engine.Options{}
				if cfg == "dir" || capability.NeedsDir(name) {
					opts.Dir = t.TempDir()
				}
				e, err := engine.Open(name, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				ids := seed(t, e)
				g := e.(model.MutableGraph)
				con := e.(engine.Concurrent)
				pinned, release, err := con.AcquireSnapshot()
				if err != nil {
					t.Fatal(err)
				}
				defer release()

				const ghostN, ghostE = 999, 999
				edgeKind := model.ErrNotFound
				if e.Features().ReferentialIntegrity != engine.No {
					edgeKind = model.ErrConstraint
				}
				_, addErr := g.AddEdge("next", ids[0], ghostN, nil)
				for _, r := range []struct {
					op   string
					err  error
					want error
				}{
					{"AddEdge", addErr, edgeKind},
					{"SetNodeProp", g.SetNodeProp(ghostN, "rank", model.Int(1)), model.ErrNotFound},
					{"SetEdgeProp", g.SetEdgeProp(ghostE, "w", model.Int(1)), model.ErrNotFound},
					{"RemoveNode", g.RemoveNode(ghostN), model.ErrNotFound},
					{"RemoveEdge", g.RemoveEdge(ghostE), model.ErrNotFound},
				} {
					if !errors.Is(r.err, r.want) {
						t.Errorf("%s on a missing target: %v, want %v", r.op, r.err, r.want)
					}
				}

				again, release2, err := con.AcquireSnapshot()
				if err != nil {
					t.Fatal(err)
				}
				defer release2()
				if again != pinned {
					t.Error("rejected mutations made AcquireSnapshot return a new graph")
				}
			})
		}
	}
}
