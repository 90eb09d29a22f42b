package report

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"gdbm/internal/engine"
	"gdbm/internal/gen"
	"gdbm/internal/model"
)

// PerfResult is one (engine, operation, scale) measurement of the
// performance sweep, the reproduction of the HPC-SGAB-style study the
// survey cites (Dominguez-Sal et al. [11]).
type PerfResult struct {
	Engine string
	Row    string // survey row name
	Op     string
	Nodes  int
	Took   time.Duration
	// OpsDone normalizes Took per primitive operation.
	OpsDone int
}

// PerOp returns the mean time per operation.
func (r PerfResult) PerOp() time.Duration {
	if r.OpsDone == 0 {
		return 0
	}
	return r.Took / time.Duration(r.OpsDone)
}

// PerfOps lists the operations of the sweep.
var PerfOps = []string{"ingest", "bfs", "2hop", "shortest"}

// RunPerf loads an R-MAT graph of the given size into each engine (opened
// by the caller-provided factory so storage dirs are fresh) and times the
// typical graph operations. Engines that do not expose an operation are
// skipped for it. The first failing operation ends the sweep with its
// error, wrapped with the operation and engine names; a shortest path
// that finds no path is an answer, not a failure.
func RunPerf(open func(name string) (engine.Engine, error), names []string, nodes, degree int, seed int64) ([]PerfResult, error) {
	var out []PerfResult
	for _, name := range names {
		e, err := open(name)
		if err != nil {
			return nil, fmt.Errorf("perf open %s: %w", name, err)
		}
		rs, err := perfEngine(e, nodes, degree, seed)
		e.Close()
		if err != nil {
			return nil, err
		}
		out = append(out, rs...)
	}
	return out, nil
}

// perfEngine runs the sweep on one open engine.
func perfEngine(e engine.Engine, nodes, degree int, seed int64) ([]PerfResult, error) {
	loader, ok := e.(engine.Loader)
	if !ok {
		return nil, nil
	}
	var out []PerfResult
	timed := func(op string, opsDone int, run func() error) error {
		start := time.Now()
		if err := run(); err != nil {
			return fmt.Errorf("perf %s %s: %w", op, e.Name(), err)
		}
		out = append(out, PerfResult{Engine: e.Name(), Row: e.SurveyRow(), Op: op, Nodes: nodes, Took: time.Since(start), OpsDone: opsDone})
		return nil
	}
	var ids []model.NodeID
	if err := timed("ingest", nodes*(degree+1), func() (err error) {
		ids, err = gen.Generate(gen.Spec{Kind: gen.RMAT, Nodes: nodes, EdgesPerNode: degree, Seed: seed}, loader)
		return err
	}); err != nil {
		return nil, err
	}

	es := e.Essentials(context.Background())
	// BFS via repeated k-neighborhood expansion when exposed.
	if es.KNeighborhood != nil {
		hoods := func(trials, stride, k int) func() error {
			return func() error {
				for trial := 0; trial < trials; trial++ {
					if _, err := es.KNeighborhood(ids[(trial*stride)%len(ids)], k); err != nil {
						return err
					}
				}
				return nil
			}
		}
		if err := timed("bfs", 4, hoods(4, 1, 4)); err != nil {
			return nil, err
		}
		if err := timed("2hop", 8, hoods(8, 37, 2)); err != nil {
			return nil, err
		}
	}
	if es.ShortestPath != nil {
		if err := timed("shortest", 4, func() error {
			for trial := 0; trial < 4; trial++ {
				from := ids[(trial*13)%len(ids)]
				to := ids[(trial*29+len(ids)/2)%len(ids)]
				if _, err := es.ShortestPath(from, to); err != nil && !errors.Is(err, model.ErrNotFound) {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RenderPerf prints the sweep grouped by operation, fastest first —
// the per-operation ranking is the "shape" EXPERIMENTS.md compares with the
// cited study.
func RenderPerf(w io.Writer, results []PerfResult) {
	byOp := map[string][]PerfResult{}
	for _, r := range results {
		byOp[r.Op] = append(byOp[r.Op], r)
	}
	for _, op := range PerfOps {
		rs := byOp[op]
		if len(rs) == 0 {
			continue
		}
		sort.Slice(rs, func(i, j int) bool { return rs[i].PerOp() < rs[j].PerOp() })
		fmt.Fprintf(w, "operation %-9s (n=%d)\n", op, rs[0].Nodes)
		for _, r := range rs {
			fmt.Fprintf(w, "  %-14s %-14s %12v/op\n", r.Row, r.Engine, r.PerOp().Round(time.Microsecond))
		}
		fmt.Fprintln(w)
	}
}
