package plan

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime/debug"
	"slices"
	"sort"
	"testing"

	"gdbm/internal/model"
)

// canonicalizeFmt is the fmt formulation canonicalize replaced, kept as
// the reference it must match: the same signature strings, hashed by
// hash/fnv, sorted by sort.Strings. It refines for rounds rounds
// (canonicalize runs len(spec.Nodes)) and also returns the final colors,
// so the differential test can see ties and what refinement changed.
func canonicalizeFmt(spec *MatchSpec, rounds int) (canonRanks, []uint64) {
	n := len(spec.Nodes)
	colors := make([]uint64, n)
	for i, np := range spec.Nodes {
		h := fnv.New64a()
		h.Write([]byte(np.Label))
		h.Write([]byte{0})
		props := make([]string, 0, len(np.Props))
		for k, v := range np.Props {
			props = append(props, k+"="+string(v.EncodeKey(nil)))
		}
		sort.Strings(props)
		for _, s := range props {
			h.Write([]byte(s))
			h.Write([]byte{1})
		}
		colors[i] = h.Sum64()
	}

	edgeSig := func(ei, from int) string {
		e := spec.Edges[ei]
		dir := e.Dir
		if from == e.To {
			dir = dir.Reverse()
		}
		return fmt.Sprintf("%s/%d/%t/%d/%d/%t", e.Label, dir, e.VarLength, e.Min, e.Max, e.Var != "")
	}

	for round := 0; round < rounds; round++ {
		next := make([]uint64, n)
		for i := range spec.Nodes {
			var sigs []string
			for ei, e := range spec.Edges {
				if e.From == i {
					sigs = append(sigs, fmt.Sprintf("%s>%016x", edgeSig(ei, i), colors[e.To]))
				}
				if e.To == i {
					sigs = append(sigs, fmt.Sprintf("%s>%016x", edgeSig(ei, i), colors[e.From]))
				}
			}
			sort.Strings(sigs)
			h := fnv.New64a()
			fmt.Fprintf(h, "%016x|", colors[i])
			for _, s := range sigs {
				h.Write([]byte(s))
				h.Write([]byte{2})
			}
			next[i] = h.Sum64()
		}
		colors = next
	}

	cr := canonRanks{
		nodeOrder: make([]int, n),
		edgeOrder: make([]int, len(spec.Edges)),
		nodeRank:  make([]int, n),
		edgeRank:  make([]int, len(spec.Edges)),
	}
	for i := range cr.nodeOrder {
		cr.nodeOrder[i] = i
	}
	sort.Slice(cr.nodeOrder, func(a, b int) bool {
		ia, ib := cr.nodeOrder[a], cr.nodeOrder[b]
		if colors[ia] != colors[ib] {
			return colors[ia] < colors[ib]
		}
		return ia < ib
	})
	for rank, i := range cr.nodeOrder {
		cr.nodeRank[i] = rank
	}

	ekey := func(ei int) string {
		e := spec.Edges[ei]
		a, b := colors[e.From], colors[e.To]
		if e.Dir == model.Both && a > b {
			a, b = b, a
		}
		return fmt.Sprintf("%s/%016x/%016x", edgeSig(ei, e.From), a, b)
	}
	keys := make([]string, len(spec.Edges))
	for ei := range spec.Edges {
		keys[ei] = ekey(ei)
		cr.edgeOrder[ei] = ei
	}
	sort.Slice(cr.edgeOrder, func(a, b int) bool {
		ia, ib := cr.edgeOrder[a], cr.edgeOrder[b]
		if keys[ia] != keys[ib] {
			return keys[ia] < keys[ib]
		}
		return ia < ib
	})
	for rank, ei := range cr.edgeOrder {
		cr.edgeRank[ei] = rank
	}
	return cr, colors
}

// sameRanks reports whether two canonicalizations agree on every order
// and rank.
func sameRanks(a, b canonRanks) bool {
	return slices.Equal(a.nodeOrder, b.nodeOrder) && slices.Equal(a.nodeRank, b.nodeRank) &&
		slices.Equal(a.edgeOrder, b.edgeOrder) && slices.Equal(a.edgeRank, b.edgeRank)
}

// randomCanonSpec draws a well-formed pattern (endpoints in range, as
// after prepare): labels from a small alphabet so colors collide, property
// maps over every value kind, all three directions, var-length edges with
// their bounds, edge variables, self-loops and parallel edges.
func randomCanonSpec(rng *rand.Rand) *MatchSpec {
	labels := []string{"", "a", "b", "ab"}
	keys := []string{"k", "kk", "x"}
	vals := []model.Value{model.Null(), model.Bool(true), model.Int(1), model.Int(-3),
		model.Float(1), model.Float(2.5), model.Str(""), model.Str("k=1"), model.Str("\x00\xff")}
	spec := &MatchSpec{}
	nn := 1 + rng.Intn(6)
	for i := 0; i < nn; i++ {
		np := NodePat{Var: fmt.Sprintf("n%d", i), Label: labels[rng.Intn(len(labels))]}
		if rng.Intn(3) == 0 {
			np.Props = model.Properties{}
			for j := rng.Intn(3); j >= 0; j-- {
				np.Props[keys[rng.Intn(len(keys))]] = vals[rng.Intn(len(vals))]
			}
		}
		spec.Nodes = append(spec.Nodes, np)
	}
	for j, ne := 0, rng.Intn(9); j < ne; j++ {
		e := EdgePat{
			From:  rng.Intn(nn),
			To:    rng.Intn(nn),
			Label: labels[rng.Intn(len(labels))],
			Dir:   []model.Direction{model.Out, model.In, model.Both}[rng.Intn(3)],
		}
		switch rng.Intn(4) {
		case 0:
			e.VarLength = true
			e.Min, e.Max = rng.Intn(3), rng.Intn(12)
		case 1:
			e.Var = fmt.Sprintf("e%d", j)
		}
		spec.Edges = append(spec.Edges, e)
	}
	return spec
}

// TestCanonicalizeMatchesFmtReference holds canonicalize to the fmt
// formulation over seeded random patterns. The vacuity guards make sure
// the draw reaches what could differ: patterns where refinement past the
// initial colors reorders nodes, and patterns that end with exact color
// ties (broken by declaration index, as the reference breaks them).
func TestCanonicalizeMatchesFmtReference(t *testing.T) {
	const specs = 20000
	rng := rand.New(rand.NewSource(34))
	refined, tied := 0, 0
	for i := 0; i < specs; i++ {
		spec := randomCanonSpec(rng)
		want, colors := canonicalizeFmt(spec, len(spec.Nodes))
		if got := canonicalize(spec); !sameRanks(got, want) {
			t.Fatalf("spec %d: ranks diverge from the reference\nspec: %+v\ngot:  %+v\nwant: %+v", i, spec, got, want)
		}
		if initial, _ := canonicalizeFmt(spec, 0); !slices.Equal(initial.nodeOrder, want.nodeOrder) {
			refined++
		}
		seen := map[uint64]bool{}
		for _, c := range colors {
			if seen[c] {
				tied++
				break
			}
			seen[c] = true
		}
	}
	t.Logf("%d specs: %d reordered by refinement, %d with tied colors", specs, refined, tied)
	if refined < specs/100 || tied < specs/100 {
		t.Fatalf("vacuous draw: %d reordered by refinement, %d with tied colors, want ≥ %d each", refined, tied, specs/100)
	}
}

// raceBuild reports a -race build, whose instrumentation makes allocation
// counts meaningless as guards.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestCanonicalizeAllocs bounds what canonicalizing a triangle costs in
// allocations; the fmt reference takes 157.
func TestCanonicalizeAllocs(t *testing.T) {
	if raceBuild() {
		t.Skip("allocation counts differ under -race")
	}
	const bound = 4
	spec := &MatchSpec{
		Nodes: []NodePat{{Var: "a", Label: "person"}, {Var: "b", Label: "person"}, {Var: "c", Label: "person"}},
		Edges: []EdgePat{
			{Label: "knows", From: 0, To: 1},
			{Label: "knows", From: 1, To: 2},
			{Label: "knows", From: 0, To: 2},
		},
	}
	allocs := testing.AllocsPerRun(100, func() { canonicalize(spec) })
	t.Logf("canonicalize(triangle): %.0f allocs", allocs)
	if allocs > bound {
		t.Fatalf("canonicalize(triangle) allocates %.0f times, want ≤ %d", allocs, bound)
	}
}
