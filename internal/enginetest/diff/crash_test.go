package diff

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"gdbm/internal/engine"
	"gdbm/internal/model"
	"gdbm/internal/storage/vfs"
)

// crashRounds is the number of flush-terminated mutation rounds the sweep
// replays. Each round is derived only from its round number, so any prefix
// can be rebuilt on a reference engine without replaying the crashed run.
const crashRounds = 5

// crashRound applies round r: a marker node recording the round number,
// two data nodes, two edges, a property update and (every other round) an
// edge removal, all committed by one Flush. The mutation mix is chosen to
// invalidate both cache tiers. The first error aborts the round —
// after a power cut every call fails.
func crashRound(e engine.Engine, r int) error {
	var mg model.MutableGraph
	switch src := e.(type) {
	case model.MutableGraph:
		mg = src
	case interface{ Graph() model.MutableGraph }:
		mg = src.Graph()
	default:
		return fmt.Errorf("%s: no MutableGraph surface", e.Name())
	}
	marker, err := mg.AddNode("round", model.Props("r", r))
	if err != nil {
		return err
	}
	a, err := mg.AddNode("person", model.Props("rank", r))
	if err != nil {
		return err
	}
	b, err := mg.AddNode("place", model.Props("rank", r*2))
	if err != nil {
		return err
	}
	knows, err := mg.AddEdge("knows", a, b, nil)
	if err != nil {
		return err
	}
	if _, err := mg.AddEdge("near", b, marker, nil); err != nil {
		return err
	}
	if err := mg.SetNodeProp(a, "rank", model.Int(int64(r+100))); err != nil {
		return err
	}
	if r%2 == 1 {
		if err := mg.RemoveEdge(knows); err != nil {
			return err
		}
	}
	return e.(engine.Persistent).Flush()
}

// warmCaches runs a few queries between rounds so the crash interrupts an
// instance with populated caches, not a cold one.
func warmCaches(e engine.Engine) {
	es := e.Essentials(context.Background())
	if es.Summarization != nil {
		es.Summarization(0, "person", "rank")
	}
	if es.KNeighborhood != nil {
		var first model.NodeID
		found := false
		if it, ok := nodeScanner(e); ok {
			it.Nodes(func(n model.Node) bool { first = n.ID; found = true; return false })
		}
		if found {
			es.KNeighborhood(first, 2)
		}
	}
}

type nodeIter interface {
	Nodes(fn func(model.Node) bool) error
}

type edgeIter interface {
	Edges(fn func(model.Edge) bool) error
}

func nodeScanner(e engine.Engine) (nodeIter, bool) {
	switch src := e.(type) {
	case nodeIter:
		return src, true
	case interface{ Graph() model.MutableGraph }:
		if it, ok := src.Graph().(nodeIter); ok {
			return it, true
		}
	}
	return nil, false
}

func edgeScanner(e engine.Engine) (edgeIter, bool) {
	switch src := e.(type) {
	case edgeIter:
		return src, true
	case interface{ Graph() model.MutableGraph }:
		if it, ok := src.Graph().(edgeIter); ok {
			return it, true
		}
	}
	return nil, false
}

// crashDump renders the full engine state plus an essential-query sweep
// over every stored node, using raw ids. Two same-archetype instances that
// replayed the same rounds from empty stores assign identical ids, so the
// renderings are directly comparable.
func crashDump(t *testing.T, e engine.Engine) string {
	t.Helper()
	it, ok := nodeScanner(e)
	if !ok {
		t.Fatalf("%s: no node scan surface", e.Name())
	}
	var lines []string
	var ids []model.NodeID
	if err := it.Nodes(func(n model.Node) bool {
		lines = append(lines, fmt.Sprintf("node %d %s %s", n.ID, n.Label, n.Props.String()))
		ids = append(ids, n.ID)
		return true
	}); err != nil {
		t.Fatalf("%s: Nodes: %v", e.Name(), err)
	}
	if eit, ok := edgeScanner(e); ok {
		if err := eit.Edges(func(ed model.Edge) bool {
			lines = append(lines, fmt.Sprintf("edge %d %s %d->%d", ed.ID, ed.Label, ed.From, ed.To))
			return true
		}); err != nil {
			t.Fatalf("%s: Edges: %v", e.Name(), err)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	es := e.Essentials(context.Background())
	for _, id := range ids {
		if es.KNeighborhood != nil {
			hood, err := es.KNeighborhood(id, 2)
			if err != nil {
				lines = append(lines, fmt.Sprintf("khood %d err", id))
			} else {
				sort.Slice(hood, func(i, j int) bool { return hood[i] < hood[j] })
				lines = append(lines, fmt.Sprintf("khood %d %v", id, hood))
			}
		}
	}
	for i := 0; i+1 < len(ids); i += 2 {
		if es.NodeAdjacency != nil {
			ok, err := es.NodeAdjacency(ids[i], ids[i+1])
			lines = append(lines, fmt.Sprintf("adj %d-%d %v %v", ids[i], ids[i+1], ok, err != nil))
		}
		if es.ShortestPath != nil {
			p, err := es.ShortestPath(ids[i], ids[i+1])
			if err != nil {
				lines = append(lines, fmt.Sprintf("spath %d-%d unreachable", ids[i], ids[i+1]))
			} else {
				lines = append(lines, fmt.Sprintf("spath %d-%d len=%d", ids[i], ids[i+1], p.Len()))
			}
		}
	}
	if es.Summarization != nil {
		for _, label := range []string{"person", "place", "round"} {
			v, err := es.Summarization(0, label, "rank")
			if err != nil {
				lines = append(lines, "summ "+label+" err")
			} else {
				lines = append(lines, "summ "+label+" "+v.String())
			}
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// durableRounds scans the recovered engine for round markers and asserts
// they form a prefix 0..k-1: a crash may lose trailing rounds but never
// expose a later round without all earlier ones (flush ordering).
func durableRounds(t *testing.T, e engine.Engine) int {
	t.Helper()
	it, ok := nodeScanner(e)
	if !ok {
		t.Fatalf("%s: no node scan surface", e.Name())
	}
	seen := map[int]bool{}
	if err := it.Nodes(func(n model.Node) bool {
		if n.Label != "round" {
			return true
		}
		r, ok := n.Props.Get("r").AsInt()
		if !ok {
			t.Errorf("round marker %d without r prop", n.ID)
			return false
		}
		seen[int(r)] = true
		return true
	}); err != nil {
		t.Fatalf("%s: Nodes: %v", e.Name(), err)
	}
	for r := 0; r < len(seen); r++ {
		if !seen[r] {
			t.Fatalf("%s: durable rounds %v are not a prefix (missing %d)", e.Name(), seen, r)
		}
	}
	return len(seen)
}

// TestCachedCrashRecoveryDifferential power-cuts a cached engine at sampled
// durability operations, recovers, and requires the recovered store — and a
// further mutation round on top of it — to be indistinguishable from an
// uncached engine that only ever executed the durable round prefix. Stale
// cache state surviving a crash/recover cycle in any tier would diverge
// here.
func TestCachedCrashRecoveryDifferential(t *testing.T) {
	for _, name := range []string{"neograph", "vertexkv", "gstore"} {
		t.Run(name, func(t *testing.T) {
			// openErr may fail: an early crash point cuts power during the
			// initial open itself. open is for contexts where failure is a
			// test bug (probe run, post-recovery reopen).
			openErr := func(fs *vfs.FaultFS, cacheBytes int64) (engine.Engine, error) {
				return engine.Open(name, engine.Options{Dir: "crash", PoolPages: 4, FS: fs, CacheBytes: cacheBytes})
			}
			open := func(fs *vfs.FaultFS, cacheBytes int64) engine.Engine {
				t.Helper()
				e, err := openErr(fs, cacheBytes)
				if err != nil {
					t.Fatalf("open %s: %v", name, err)
				}
				return e
			}
			runRounds := func(e engine.Engine) int {
				for r := 0; r < crashRounds; r++ {
					if err := crashRound(e, r); err != nil {
						return r
					}
					warmCaches(e)
				}
				return crashRounds
			}

			// Probe run: count durability ops of a fault-free cached run.
			probe := vfs.NewFaultFS()
			pe := open(probe, twinCacheBytes)
			if got := runRounds(pe); got != crashRounds {
				t.Fatalf("probe run stopped at round %d", got)
			}
			pe.Close()
			total := probe.Ops()
			if total == 0 {
				t.Fatal("probe run performed no durability ops")
			}

			// Sweep: power-cut before op p for up to 24 evenly-spaced p.
			stride := total/24 + 1
			points := 0
			for p := 1; p <= total; p += stride {
				points++
				fs := vfs.NewFaultFS()
				fs.SetFaults(vfs.Fault{Kind: vfs.PowerCut, Op: p})
				if ce, err := openErr(fs, twinCacheBytes); err == nil {
					runRounds(ce)
					ce.Close()
				}
				fs.Recover()

				recovered := open(fs, twinCacheBytes)
				k := durableRounds(t, recovered)

				ref, err := engine.Open(name, engine.Options{Dir: t.TempDir()})
				if err != nil {
					t.Fatalf("open reference: %v", err)
				}
				for r := 0; r < k; r++ {
					if err := crashRound(ref, r); err != nil {
						t.Fatalf("reference round %d: %v", r, err)
					}
				}
				if got, want := crashDump(t, recovered), crashDump(t, ref); got != want {
					t.Fatalf("cut at op %d/%d (k=%d): recovered cached state diverges from uncached reference\nrecovered:\n%s\nreference:\n%s",
						p, total, k, got, want)
				}

				// One more round on both: the recovered instance's caches must
				// invalidate correctly for post-recovery mutations too.
				if err := crashRound(recovered, 1000); err != nil {
					t.Fatalf("cut at op %d: post-recovery round on recovered: %v", p, err)
				}
				if err := crashRound(ref, 1000); err != nil {
					t.Fatalf("cut at op %d: post-recovery round on reference: %v", p, err)
				}
				if got, want := crashDump(t, recovered), crashDump(t, ref); got != want {
					t.Fatalf("cut at op %d/%d (k=%d): post-recovery mutations diverge\nrecovered:\n%s\nreference:\n%s",
						p, total, k, got, want)
				}
				recovered.Close()
				ref.Close()
			}
			t.Logf("%s: %d crash points over %d durability ops, all differential checks passed", name, points, total)
		})
	}
}
