package diff

import (
	"sort"
	"strings"
	"testing"

	"gdbm/internal/model"
	"gdbm/internal/query/plan"
	"gdbm/internal/query/stats"
)

// planPatCount is how many blueprints each run draws (fixed cyclic cores
// plus seeded random patterns). Replay a failing run with -seed=N.
const planPatCount = 24

// planInstance is one engine prepared for plan-differential rendering.
type planInstance struct {
	name string
	src  plan.Source
	st   *stats.Stats
}

func openPlanInstance(t *testing.T, name, cfg string) *planInstance {
	t.Helper()
	tw := openSnapTwin(t, name, cfg)
	seedPlanGraph(t, tw.ld)
	src, ok := tw.eng.(plan.Source)
	if !ok {
		t.Fatalf("%s does not implement plan.Source", name)
	}
	inst := &planInstance{name: name, src: src}
	if sp, ok := tw.eng.(stats.Provider); ok {
		st, err := sp.PlanStats()
		if err != nil {
			t.Fatalf("%s PlanStats: %v", name, err)
		}
		inst.st = st
	}
	if inst.st == nil {
		st, err := stats.Build(src, 0)
		if err != nil {
			t.Fatalf("%s stats.Build fallback: %v", name, err)
		}
		inst.st = st
	}
	return inst
}

// plannerSet is the three planners every spec renders under. Each planner
// gets its own freshly rendered spec: compilation normalizes the spec in
// place, and sharing one would leak normalization across planners.
type namedPlanner struct {
	name    string
	compile func(*plan.MatchSpec, *stats.Stats) (plan.Op, error)
}

var planners = []namedPlanner{
	{"naive", func(s *plan.MatchSpec, _ *stats.Stats) (plan.Op, error) {
		return plan.Compile(s)
	}},
	{"cost", func(s *plan.MatchSpec, st *stats.Stats) (plan.Op, error) {
		op, _, err := plan.Planner{Stats: st}.Compile(s)
		return op, err
	}},
	{"wco", func(s *plan.MatchSpec, st *stats.Stats) (plan.Op, error) {
		op, _, err := plan.Planner{Stats: st, WCO: true}.Compile(s)
		return op, err
	}},
}

// renderPlanResult canonicalizes a result: EncodeKey per row, sorted unless the
// pattern carries a total OrderBy (then order is part of the answer).
func renderPlanResult(res *plan.Result, ordered bool) string {
	lines := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		var kb []byte
		for _, v := range row {
			kb = v.EncodeKey(kb)
			kb = append(kb, '|')
		}
		lines[i] = string(kb)
	}
	if !ordered {
		sort.Strings(lines)
	}
	return strings.Join(lines, "\n")
}

// adjacencyTwin wraps a source for the adjacency-path differential. Node
// scans, indexed or not, are handed on in ID order (stores scan in map
// order), so two runs of one plan can be compared row for row; sorted
// adjacency passes through; id adjacency passes through and is counted
// when native is set, and is refused — sending the operators to Neighbors
// — when it is nil.
type adjacencyTwin struct {
	plan.Source
	native *int
}

func inIDOrder(scan func(func(model.Node) bool) error, fn func(model.Node) bool) error {
	var nodes []model.Node
	if err := scan(func(n model.Node) bool {
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

func (a adjacencyTwin) Nodes(fn func(model.Node) bool) error {
	return inIDOrder(a.Source.Nodes, fn)
}

func (a adjacencyTwin) IndexedNodes(label, prop string, v model.Value, fn func(model.Node) bool) (handled bool, err error) {
	err = inIDOrder(func(collect func(model.Node) bool) (err error) {
		handled, err = a.Source.IndexedNodes(label, prop, v, collect)
		return err
	}, fn)
	return handled, err
}

func (a adjacencyTwin) SortedNeighborIDs(id model.NodeID, dir model.Direction, label string) ([]model.NodeID, error) {
	return plan.SortedNeighborIDs(a.Source, id, dir, label)
}

func (a adjacencyTwin) AppendNeighborIDs(buf []model.NeighborID, id model.NodeID, dir model.Direction, label string) ([]model.NeighborID, bool, error) {
	ia, ok := a.Source.(model.IDAdjacency)
	if !ok || a.native == nil {
		return buf, false, nil
	}
	out, handled, err := ia.AppendNeighborIDs(buf, id, dir, label)
	if handled {
		*a.native++
	}
	return out, handled, err
}

// nativeAdjacency counts the id-adjacency requests the sources answered
// across the differential: the vacuity guard of the adjacency twins.
var nativeAdjacency int

// runPat renders pat under every planner on inst and fails the test unless
// all three renderings are byte-identical, and unless every plan renders
// the same rows in the same order with id adjacency as with Neighbors
// alone; it returns the agreed rendering and whether any plan used the
// multiway intersection operator.
func runPat(t *testing.T, inst *planInstance, pi int, pat PlanPat) (string, bool) {
	t.Helper()
	var agreed string
	usedIntersect := false
	for k, pl := range planners {
		spec, cols := pat.Render("v")
		op, err := pl.compile(spec, inst.st)
		if err != nil {
			t.Fatalf("pat %d planner %s compile: %v", pi, pl.name, err)
		}
		if strings.Contains(op.String(), "Intersect") {
			usedIntersect = true
		}
		res, err := plan.Collect(op, inst.src, cols)
		if err != nil {
			t.Fatalf("pat %d planner %s run: %v\nplan: %s", pi, pl.name, err, op)
		}
		got := renderPlanResult(res, pat.Ordered())
		var twins [2]string
		for i, src := range []plan.Source{adjacencyTwin{inst.src, &nativeAdjacency}, adjacencyTwin{inst.src, nil}} {
			res, err := plan.Collect(op, src, cols)
			if err != nil {
				t.Fatalf("pat %d planner %s adjacency twin %d: %v\nplan: %s", pi, pl.name, i, err, op)
			}
			twins[i] = renderPlanResult(res, true)
		}
		if twins[0] != twins[1] {
			t.Errorf("pat %d planner %s: id adjacency and Neighbors disagree\nplan: %s\nid pairs:  %q\nNeighbors: %q",
				pi, pl.name, op, twins[0], twins[1])
		}
		if k == 0 {
			agreed = got
			continue
		}
		if got != agreed {
			t.Errorf("pat %d: planner %s disagrees with %s\nplan: %s\n%s: %q\n%s: %q",
				pi, pl.name, planners[0].name, op, planners[0].name, agreed, pl.name, got)
		}
	}
	return agreed, usedIntersect
}

// pgFaithful are the snapshotting engines whose Loader preserves the
// property-graph surface verbatim. Triplestore is deliberately absent: its
// triple mapping reifies labels and properties as extra statements (and
// dedupes parallel edges), so the same logical load yields a different —
// equally valid — graph. It still runs the full three-planner identity
// check per pattern; only the cross-engine rendering comparison excludes it.
var pgFaithful = map[string]bool{"bitmapdb": true, "infinigraph": true, "neograph": true}

// TestPlanDifferential is the planner-equivalence proof: every seeded
// pattern, rendered under the naive, cost-based, and worst-case-optimal
// planners, must produce byte-identical canonical results — per engine on
// all snapshotting engines, and then across the property-graph-faithful
// engines (projections are property values, so internal IDs never leak
// into the comparison). It also asserts the WCO planner actually fired at
// least once: a differential test against a plan that never runs proves
// nothing.
func TestPlanDifferential(t *testing.T) {
	pats := GeneratePlanPats(SeedOrDefault(7), planPatCount)
	renders := map[string][]string{}
	intersected := false
	for _, name := range snapEngines {
		t.Run(name, func(t *testing.T) {
			inst := openPlanInstance(t, name, "mem")
			out := make([]string, len(pats))
			for pi, pat := range pats {
				got, usedIntersect := runPat(t, inst, pi, pat)
				out[pi] = got
				intersected = intersected || usedIntersect
			}
			if !t.Failed() && pgFaithful[name] {
				renders[name] = out
			}
		})
	}
	if !intersected {
		t.Errorf("no plan used the Intersect operator; the WCO path went untested")
	}
	if nativeAdjacency == 0 {
		t.Errorf("no source answered an id-adjacency request; the adjacency twins compared Neighbors with itself")
	}
	// Cross-engine identity over the engines that completed.
	base, baseName := []string(nil), ""
	for _, name := range snapEngines {
		out, ok := renders[name]
		if !ok {
			continue
		}
		if base == nil {
			base, baseName = out, name
			continue
		}
		for pi := range pats {
			if out[pi] != base[pi] {
				t.Errorf("pat %d: engine %s disagrees with %s\n%s: %q\n%s: %q",
					pi, name, baseName, baseName, base[pi], name, out[pi])
			}
		}
	}
}

// TestPlanDifferentialDisk repeats the differential sweep on the
// disk-backed configuration of every snapshotting engine, so kvgraph's
// statistics, sorted adjacency and id adjacency are exercised by the
// harness too — the last with a guard that the disk stores answered it.
func TestPlanDifferentialDisk(t *testing.T) {
	pats := GeneratePlanPats(SeedOrDefault(7), planPatCount)
	diskNative := 0
	for _, name := range snapEngines {
		t.Run(name, func(t *testing.T) {
			mem := openPlanInstance(t, name, "mem")
			dir := openPlanInstance(t, name, "dir")
			for pi, pat := range pats {
				a, _ := runPat(t, mem, pi, pat)
				before := nativeAdjacency
				b, _ := runPat(t, dir, pi, pat)
				diskNative += nativeAdjacency - before
				if a != b {
					t.Errorf("pat %d: dir configuration disagrees with mem\nmem: %q\ndir: %q", pi, a, b)
				}
			}
		})
	}
	if diskNative == 0 {
		t.Errorf("no disk-backed source answered an id-adjacency request; its adjacency twins compared Neighbors with itself")
	}
}
