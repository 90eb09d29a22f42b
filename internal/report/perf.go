package report

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"gdbm/internal/algo"
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
// skipped for it.
func RunPerf(open func(name string) (engine.Engine, error), names []string, nodes, degree int, seed int64) ([]PerfResult, error) {
	var out []PerfResult
	for _, name := range names {
		e, err := open(name)
		if err != nil {
			return nil, fmt.Errorf("perf open %s: %w", name, err)
		}
		loader, ok := e.(engine.Loader)
		if !ok {
			e.Close()
			continue
		}
		start := time.Now()
		ids, err := gen.Generate(gen.Spec{Kind: gen.RMAT, Nodes: nodes, EdgesPerNode: degree, Seed: seed}, loader)
		if err != nil {
			e.Close()
			return nil, fmt.Errorf("perf ingest %s: %w", name, err)
		}
		out = append(out, PerfResult{Engine: e.Name(), Row: e.SurveyRow(), Op: "ingest", Nodes: nodes, Took: time.Since(start), OpsDone: nodes * (degree + 1)})

		es := e.Essentials(context.Background())
		// BFS via repeated k-neighborhood expansion when exposed.
		if es.KNeighborhood != nil {
			start = time.Now()
			reached := 0
			for trial := 0; trial < 4; trial++ {
				nb, err := es.KNeighborhood(ids[trial%len(ids)], 4)
				if err == nil {
					reached += len(nb)
				}
			}
			out = append(out, PerfResult{Engine: e.Name(), Row: e.SurveyRow(), Op: "bfs", Nodes: nodes, Took: time.Since(start), OpsDone: 4})
			_ = reached

			start = time.Now()
			for trial := 0; trial < 8; trial++ {
				es.KNeighborhood(ids[(trial*37)%len(ids)], 2)
			}
			out = append(out, PerfResult{Engine: e.Name(), Row: e.SurveyRow(), Op: "2hop", Nodes: nodes, Took: time.Since(start), OpsDone: 8})
		}
		if es.ShortestPath != nil {
			start = time.Now()
			done := 0
			for trial := 0; trial < 4; trial++ {
				from := ids[(trial*13)%len(ids)]
				to := ids[(trial*29+len(ids)/2)%len(ids)]
				if _, err := es.ShortestPath(from, to); err == nil {
					done++
				}
			}
			out = append(out, PerfResult{Engine: e.Name(), Row: e.SurveyRow(), Op: "shortest", Nodes: nodes, Took: time.Since(start), OpsDone: 4})
		}
		e.Close()
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

// Degrees re-exports the degree summary for the shell's stats command.
func Degrees(g model.Graph) (algo.DegreeStats, error) {
	return algo.Degrees(g, model.Both)
}
