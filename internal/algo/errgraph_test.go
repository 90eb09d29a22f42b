package algo

import (
	"errors"
	"math/rand"
	"testing"

	"gdbm/internal/algo/algotest"
	"gdbm/internal/model"
)

// Regression tests for the swallowed-iterator-error sweep: every kernel
// must surface a failure from the underlying model.Graph instead of
// returning a silently truncated result.

func flakyFixture(t *testing.T, budget int) *algotest.FlakyGraph {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	g, _ := algotest.RandomGraph(rng, 12, 30)
	return algotest.NewFlaky(g, budget)
}

func TestDegreesPropagatesNodesError(t *testing.T) {
	if _, err := Degrees(flakyFixture(t, 0), model.Both); !errors.Is(err, algotest.ErrInjected) {
		t.Fatalf("Degrees with failing Nodes: err = %v, want injected", err)
	}
}

func TestDegreesPropagatesDegreeError(t *testing.T) {
	// Budget 1: the Nodes scan succeeds, the first Degree call fails.
	if _, err := Degrees(flakyFixture(t, 1), model.Both); !errors.Is(err, algotest.ErrInjected) {
		t.Fatalf("Degrees with failing Degree: err = %v, want injected", err)
	}
}

func TestDiameterPropagatesErrors(t *testing.T) {
	for _, budget := range []int{0, 1, 2} {
		if _, err := Diameter(flakyFixture(t, budget), model.Out); !errors.Is(err, algotest.ErrInjected) {
			t.Errorf("Diameter budget=%d: err = %v, want injected", budget, err)
		}
	}
}

func TestAggregatePropagatesNodesError(t *testing.T) {
	if _, err := AggregateNodeProp(flakyFixture(t, 0), "P", "w", AggSum); !errors.Is(err, algotest.ErrInjected) {
		t.Fatalf("AggregateNodeProp with failing Nodes: err = %v, want injected", err)
	}
}

func TestBFSAndNeighborhoodPropagateErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g, ids := algotest.RandomGraph(rng, 12, 40)
	fg := algotest.NewFlaky(g, 1)
	err := BFS(fg, ids[0], model.Both, func(model.NodeID, int) bool { return true })
	if !errors.Is(err, algotest.ErrInjected) {
		t.Errorf("BFS: err = %v, want injected", err)
	}
	fg = algotest.NewFlaky(g, 1)
	if _, err := Neighborhood(fg, ids[0], 3, model.Both); !errors.Is(err, algotest.ErrInjected) {
		t.Errorf("Neighborhood: err = %v, want injected", err)
	}
}
