package report

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"gdbm/internal/algo"
	"gdbm/internal/engine"
	"gdbm/internal/model"
)

// stubEngine is a Loader that stores nothing and answers the two
// essentials the sweep times with fixed errors.
type stubEngine struct {
	next      int64
	hoodErr   error
	pathErr   error
	withHoods bool
}

func (s *stubEngine) Name() string              { return "stub" }
func (s *stubEngine) SurveyRow() string         { return "Stub" }
func (s *stubEngine) Features() engine.Features { return engine.Features{} }
func (s *stubEngine) Close() error              { return nil }
func (s *stubEngine) LoadNode(string, model.Properties) (model.NodeID, error) {
	s.next++
	return model.NodeID(s.next), nil
}
func (s *stubEngine) LoadEdge(string, model.NodeID, model.NodeID, model.Properties) (model.EdgeID, error) {
	s.next++
	return model.EdgeID(s.next), nil
}

func (s *stubEngine) Essentials(context.Context) engine.Essentials {
	es := engine.Essentials{
		ShortestPath: func(from, to model.NodeID) (algo.Path, error) { return algo.Path{}, s.pathErr },
	}
	if s.withHoods {
		es.KNeighborhood = func(model.NodeID, int) ([]model.NodeID, error) { return nil, s.hoodErr }
	}
	return es
}

func runStub(s *stubEngine) ([]PerfResult, error) {
	return RunPerf(func(string) (engine.Engine, error) { return s, nil }, []string{"stub"}, 20, 2, 1)
}

// TestRunPerfReturnsOperationErrors: a failing k-neighbourhood or shortest
// path ends the sweep with that error, named by operation and engine,
// instead of being timed as if it had answered; a shortest path that finds
// no path is an answer, timed like any other.
func TestRunPerfReturnsOperationErrors(t *testing.T) {
	boom := errors.New("boom")
	for _, c := range []struct {
		op   string
		stub *stubEngine
		want error // nil: every operation is timed
	}{
		{"bfs", &stubEngine{withHoods: true, hoodErr: boom}, boom},
		{"shortest", &stubEngine{pathErr: boom}, boom},
		{"shortest", &stubEngine{withHoods: true, pathErr: fmt.Errorf("no path: %w", model.ErrNotFound)}, nil},
	} {
		results, err := runStub(c.stub)
		if c.want == nil {
			var ops []string
			for _, r := range results {
				ops = append(ops, r.Op)
			}
			if got := strings.Join(ops, " "); err != nil || got != "ingest bfs 2hop shortest" {
				t.Errorf("no path: ops %q, %v; want every operation timed", got, err)
			}
			continue
		}
		if !errors.Is(err, c.want) {
			t.Errorf("%s: RunPerf = %d results, %v; want the stub's error", c.op, len(results), err)
		} else if want := fmt.Sprintf("perf %s stub", c.op); !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not name %q", c.op, err, want)
		}
	}
}
