package diff

import (
	"context"
	"flag"
	"fmt"
	"sort"
	"strings"
	"testing"

	"gdbm/internal/algo"
	"gdbm/internal/engine"
	"gdbm/internal/memgraph"
	"gdbm/internal/model"
)

// seedFlag makes every differential failure replayable: the failing test
// logs its seed, and rerunning the package with -seed=<n> pins every
// workload in the package to exactly that seed.
var seedFlag = flag.Int64("seed", 0, "override the differential workload seed (0 = per-test defaults)")

// SeedOrDefault returns the -seed flag when set, else def. Tests derive
// their workloads only through this, so any failure is replayable.
func SeedOrDefault(def int64) int64 {
	if *seedFlag != 0 {
		return *seedFlag
	}
	return def
}

// Instance is one side of a differential pair: an engine (or the oracle)
// plus the mapping from workload indexes to its id space.
type Instance struct {
	Name string
	es   engine.Essentials
	mg   model.MutableGraph // full mutation surface; nil = loader-only
	ld   engine.Loader
	pers engine.Persistent // nil when the instance has no flush

	nodes []model.NodeID // workload node index -> instance id
	edges []model.EdgeID
	rev   map[model.NodeID]int
	reve  map[model.EdgeID]int
}

// NewInstance wraps an engine. The mutation surface is resolved in order:
// the engine's own MutableGraph, a Graph() accessor (gstore), or the
// Loader alone — in the last case removals and property updates are
// unavailable and Pair skips them on both sides.
func NewInstance(t testing.TB, e engine.Engine) *Instance {
	t.Helper()
	in := &Instance{
		Name: e.Name(),
		es:   e.Essentials(context.Background()),
		rev:  map[model.NodeID]int{},
		reve: map[model.EdgeID]int{},
	}
	switch src := e.(type) {
	case model.MutableGraph:
		in.mg = src
	case interface{ Graph() model.MutableGraph }:
		in.mg = src.Graph()
	}
	if ld, ok := e.(engine.Loader); ok {
		in.ld = ld
	}
	if in.mg == nil && in.ld == nil {
		t.Fatalf("%s: no mutation surface", e.Name())
	}
	if p, ok := e.(engine.Persistent); ok {
		in.pers = p
	}
	return in
}

// NewOracle returns the reference instance: the in-memory graph queried
// directly through the algo kernels with the same direction conventions
// the engines use (Both for adjacency and neighborhoods, Out for paths).
func NewOracle() *Instance {
	g := memgraph.New()
	return &Instance{
		Name: "oracle",
		mg:   g,
		rev:  map[model.NodeID]int{},
		reve: map[model.EdgeID]int{},
		es: engine.Essentials{
			NodeAdjacency: func(a, b model.NodeID) (bool, error) {
				return algo.Adjacent(g, a, b, model.Both)
			},
			KNeighborhood: func(n model.NodeID, k int) ([]model.NodeID, error) {
				return algo.Neighborhood(g, n, k, model.Both)
			},
			FixedLengthPaths: func(from, to model.NodeID, length int) ([]algo.Path, error) {
				return algo.FixedLengthPaths(g, from, to, length, model.Out, 0)
			},
			ShortestPath: func(from, to model.NodeID) (algo.Path, error) {
				return algo.ShortestPath(g, from, to, model.Out)
			},
			Summarization: func(kind algo.AggKind, label, prop string) (model.Value, error) {
				return algo.AggregateNodeProp(g, label, prop, kind)
			},
		},
	}
}

// Classes masks which essential-query classes a comparison exercises.
type Classes struct {
	Adj, KHood, Fixed, Shortest, Summ bool
}

// AllClasses enables every query class; Pair still intersects with what
// both instances actually expose.
func AllClasses() Classes {
	return Classes{Adj: true, KHood: true, Fixed: true, Shortest: true, Summ: true}
}

// nodeRef renders an instance node id as its workload index; ids outside
// the mapping (engine-internal nodes) render by raw id, which only two
// instances with identical id spaces can agree on.
func (in *Instance) nodeRef(id model.NodeID) string {
	if i, ok := in.rev[id]; ok {
		return fmt.Sprintf("n%d", i)
	}
	return fmt.Sprintf("#%d", id)
}

func (in *Instance) edgeRef(id model.EdgeID) string {
	if i, ok := in.reve[id]; ok {
		return fmt.Sprintf("e%d", i)
	}
	return fmt.Sprintf("#%d", id)
}

func (in *Instance) pathRef(p algo.Path) string {
	var b strings.Builder
	for i, n := range p.Nodes {
		if i > 0 {
			b.WriteByte('-')
			b.WriteString(in.edgeRef(p.Edges[i-1]))
			b.WriteByte('-')
		}
		b.WriteString(in.nodeRef(n))
	}
	return b.String()
}

// errRef folds errors into the rendering. strict keeps the message (same-
// engine twins must agree on it exactly); loose keeps only the fact.
func errRef(err error, strict bool) string {
	if strict {
		return "err:" + err.Error()
	}
	return "err"
}

// Apply executes one op and returns its canonical rendering. Mutations
// render their outcome so divergent failures are caught too.
func (in *Instance) Apply(op Op, strict bool) string {
	switch op.Kind {
	case OpAddNode:
		props := model.Props(op.Prop, op.Val)
		var id model.NodeID
		var err error
		if in.mg != nil {
			id, err = in.mg.AddNode(op.Label, props)
		} else {
			id, err = in.ld.LoadNode(op.Label, props)
		}
		in.nodes = append(in.nodes, id)
		if err != nil {
			return "addnode:" + errRef(err, strict)
		}
		in.rev[id] = len(in.nodes) - 1
		return "addnode:ok"
	case OpAddEdge:
		from, to := in.nodes[op.A], in.nodes[op.B]
		var id model.EdgeID
		var err error
		if in.mg != nil {
			id, err = in.mg.AddEdge(op.Label, from, to, nil)
		} else {
			id, err = in.ld.LoadEdge(op.Label, from, to, nil)
		}
		in.edges = append(in.edges, id)
		if err != nil {
			return "addedge:" + errRef(err, strict)
		}
		in.reve[id] = len(in.edges) - 1
		return "addedge:ok"
	case OpRemoveEdge:
		if err := in.mg.RemoveEdge(in.edges[op.E]); err != nil {
			return "rmedge:" + errRef(err, strict)
		}
		return "rmedge:ok"
	case OpRemoveNode:
		if err := in.mg.RemoveNode(in.nodes[op.A]); err != nil {
			return "rmnode:" + errRef(err, strict)
		}
		return "rmnode:ok"
	case OpSetNodeProp:
		if err := in.mg.SetNodeProp(in.nodes[op.A], op.Prop, model.Int(op.Val)); err != nil {
			return "setprop:" + errRef(err, strict)
		}
		return "setprop:ok"
	case OpFlush:
		if in.pers == nil {
			return "flush:ok"
		}
		if err := in.pers.Flush(); err != nil {
			return "flush:" + errRef(err, strict)
		}
		return "flush:ok"
	case OpQueryAdjacency:
		ok, err := in.es.NodeAdjacency(in.nodes[op.A], in.nodes[op.B])
		if err != nil {
			return "adj:" + errRef(err, strict)
		}
		return fmt.Sprintf("adj:%v", ok)
	case OpQueryKNeighborhood:
		ids, err := in.es.KNeighborhood(in.nodes[op.A], op.K)
		if err != nil {
			return "khood:" + errRef(err, strict)
		}
		refs := make([]string, len(ids))
		for i, id := range ids {
			refs[i] = in.nodeRef(id)
		}
		sort.Strings(refs)
		return "khood:[" + strings.Join(refs, " ") + "]"
	case OpQueryFixedPaths:
		paths, err := in.es.FixedLengthPaths(in.nodes[op.A], in.nodes[op.B], op.K)
		if err != nil {
			return "fpaths:" + errRef(err, strict)
		}
		refs := make([]string, len(paths))
		for i, p := range paths {
			refs[i] = in.pathRef(p)
		}
		sort.Strings(refs)
		return "fpaths:[" + strings.Join(refs, " ") + "]"
	case OpQueryShortest:
		p, err := in.es.ShortestPath(in.nodes[op.A], in.nodes[op.B])
		if err != nil {
			// Unreachable targets error; that outcome must match.
			return "spath:" + errRef(err, strict)
		}
		if !strict {
			// Equal-length shortest paths may tie-break differently across
			// engines; the length is the contract.
			return fmt.Sprintf("spath:len=%d", p.Len())
		}
		return "spath:" + in.pathRef(p)
	case OpQuerySummarize:
		// Sum over the mutated rank property: stale cached values show up
		// as a wrong aggregate immediately.
		v, err := in.es.Summarization(algo.AggSum, op.Label, op.Prop)
		if err != nil {
			return "summ:" + errRef(err, strict)
		}
		return "summ:" + v.String()
	}
	return "unknown-op"
}

// supportsQuery reports whether the instance's essential surface exposes
// the op's query class (mutations always count as supported here; Pair
// handles loader-only instances separately).
func (in *Instance) supportsQuery(op Op) bool {
	switch op.Kind {
	case OpQueryAdjacency:
		return in.es.NodeAdjacency != nil
	case OpQueryKNeighborhood:
		return in.es.KNeighborhood != nil
	case OpQueryFixedPaths:
		return in.es.FixedLengthPaths != nil
	case OpQueryShortest:
		return in.es.ShortestPath != nil
	case OpQuerySummarize:
		return in.es.Summarization != nil
	}
	return true
}

func maskAllows(mask Classes, op Op) bool {
	switch op.Kind {
	case OpQueryAdjacency:
		return mask.Adj
	case OpQueryKNeighborhood:
		return mask.KHood
	case OpQueryFixedPaths:
		return mask.Fixed
	case OpQueryShortest:
		return mask.Shortest
	case OpQuerySummarize:
		return mask.Summ
	}
	return true
}

func isDestructive(op Op) bool {
	switch op.Kind {
	case OpRemoveEdge, OpRemoveNode, OpSetNodeProp:
		return true
	}
	return false
}

// Pair replays ops against both instances and fails on the first rendered
// divergence, logging the seed and op index for replay. strict demands
// byte-identical renderings including full paths and error text (same-
// engine twins); loose mode compares the portable contract (cross-engine
// versus the oracle). Ops either side cannot express — queries outside the
// mask or the shared surface, destructive mutations on loader-only
// instances — are skipped on BOTH sides so the graphs never diverge.
func Pair(t *testing.T, seed int64, ops []Op, a, b *Instance, strict bool, mask Classes) {
	t.Helper()
	pairThen(t, seed, ops, a, b, strict, mask, nil)
}

// pairThen is Pair with a hook: after, when non-nil, runs after every op
// both instances applied, with the op's index.
func pairThen(t *testing.T, seed int64, ops []Op, a, b *Instance, strict bool, mask Classes, after func(i int)) {
	t.Helper()
	applied := 0
	for i, op := range ops {
		if isDestructive(op) && (a.mg == nil || b.mg == nil) {
			continue
		}
		if !maskAllows(mask, op) || !a.supportsQuery(op) || !b.supportsQuery(op) {
			continue
		}
		ra := a.Apply(op, strict)
		rb := b.Apply(op, strict)
		if ra != rb {
			t.Fatalf("seed %d: op %d diverged\n  op: %+v\n  %s: %s\n  %s: %s\n(replay with -seed=%d)",
				seed, i, op, a.Name, ra, b.Name, rb, seed)
		}
		applied++
		if after != nil {
			after(i)
		}
	}
	if applied == 0 {
		t.Fatalf("seed %d: workload applied no ops", seed)
	}
}
