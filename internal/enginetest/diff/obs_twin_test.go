package diff

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"gdbm/internal/engine"
	"gdbm/internal/gen"
	"gdbm/internal/model"
	"gdbm/internal/obs"
	"gdbm/internal/query/plan"
)

// TestObservedUnobservedTwins replays one seeded mutate/query workload
// against an instrumented instance (a metrics registry wired through
// Options.Metrics, so every pager, WAL and kvgraph touch records) and a
// bare twin, and requires byte-identical renderings of every answer. This
// is the observability half of the cardinal rule in internal/obs: turning
// observation on must never change what any query returns.
func TestObservedUnobservedTwins(t *testing.T) {
	for i, name := range twinEngines {
		t.Run(name, func(t *testing.T) {
			seed := SeedOrDefault(0x0B5E + int64(i))
			ops := Generate(seed, 400)
			reg := obs.NewRegistry()
			observed, err := engine.Open(name, engine.Options{
				Dir: t.TempDir(), CacheBytes: twinCacheBytes, Metrics: reg,
			})
			if err != nil {
				t.Fatalf("open observed %s: %v", name, err)
			}
			t.Cleanup(func() { observed.Close() })
			plain := openTwin(t, name, twinCacheBytes)
			Pair(t, seed, ops, NewInstance(t, observed), NewInstance(t, plain), true, AllClasses())

			// The proof is vacuous if nothing was observed: the workload
			// must have recorded storage traffic in the registry.
			var total uint64
			for _, v := range reg.Counters() {
				total += v
			}
			if total == 0 {
				t.Fatalf("%s: observed twin recorded no metrics over %d ops", name, len(ops))
			}
		})
	}
}

// renderResult canonicalizes a query result for byte comparison.
func renderResult(res *plan.Result, err error) string {
	if err != nil {
		return "err:" + err.Error()
	}
	var b strings.Builder
	b.WriteString(strings.Join(res.Cols, "|"))
	for _, row := range res.Rows {
		b.WriteByte('\n')
		for j, v := range row {
			if j > 0 {
				b.WriteByte('|')
			}
			b.WriteString(v.String())
		}
	}
	return b.String()
}

// twinStatements is a read-only workload per query language over the
// generator's graph shape (nodes labeled N with int property idx, edges
// labeled link). Statements order their output so renderings are stable.
func twinStatements(lang string, ids []model.NodeID) []string {
	switch lang {
	case "gql":
		return []string{
			`MATCH (a:N) WHERE a.idx < 8 RETURN a.idx AS i ORDER BY i`,
			`MATCH (a:N)-[:link]->(b) RETURN count(*) AS n`,
		}
	case "gsql":
		return []string{
			`SELECT ORDER`,
			`SELECT SIZE`,
			fmt.Sprintf(`SELECT NEIGHBORS OF %d DEPTH 2`, ids[0]),
		}
	case "sparqlish":
		return []string{
			`SELECT ?x WHERE { ?x <type> "N" . } ORDER BY ?x LIMIT 8`,
			`SELECT DISTINCT ?o WHERE { ?s <link> ?o . } ORDER BY ?o LIMIT 8`,
		}
	}
	return nil
}

// TestTracedUntracedQueryTwins runs identical statements through each
// disk-backed Querier twin pair — one dispatch carrying a live trace, the
// other none — and requires byte-identical renderings. This is the span
// half of the cardinal rule: the parse/exec spans a trace records must be
// pure observation. It also holds the span accounting: the depth-0 spans
// of every traced query fit within its wall time.
func TestTracedUntracedQueryTwins(t *testing.T) {
	for _, name := range twinEngines {
		t.Run(name, func(t *testing.T) {
			traced := openTwin(t, name, twinCacheBytes)
			untraced := openTwin(t, name, twinCacheBytes)
			qt, ok := traced.(engine.Querier)
			if !ok {
				t.Skipf("%s is API-only; no language to trace", name)
			}
			qu := untraced.(engine.Querier)

			spec := gen.Spec{Kind: gen.RMAT, Nodes: 300, EdgesPerNode: 2, Seed: 7}
			ids, err := gen.Generate(spec, traced.(engine.Loader))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := gen.Generate(spec, untraced.(engine.Loader)); err != nil {
				t.Fatal(err)
			}

			stmts := twinStatements(qt.LanguageName(), ids)
			if len(stmts) == 0 {
				t.Fatalf("no twin statements for language %q", qt.LanguageName())
			}
			for _, stmt := range stmts {
				// Run each statement twice per side so the second traced run
				// exercises the result-cache hit path under tracing too.
				for pass := 0; pass < 2; pass++ {
					tr := obs.New(stmt)
					ctx := obs.WithTrace(context.Background(), tr)
					ra := renderResult(engine.QueryContext(ctx, qt, stmt))
					tr.Finish()
					rb := renderResult(engine.QueryContext(context.Background(), qu, stmt))
					if ra != rb {
						t.Fatalf("%s pass %d: %q diverged under tracing\n  traced:   %s\n  untraced: %s",
							name, pass, stmt, ra, rb)
					}
					// Vacuity guard: the traced side must actually have traced.
					spans := tr.Spans()
					if len(spans) == 0 {
						t.Fatalf("%s: %q recorded no spans", name, stmt)
					}
					found := false
					var top time.Duration
					for _, s := range spans {
						if s.Name == "query" && s.Depth == 0 {
							found = true
						}
						if s.Depth == 0 {
							top += s.Dur
						}
					}
					if !found {
						t.Fatalf("%s: %q has no depth-0 query span: %+v", name, stmt, spans)
					}
					// Depth-0 spans never overlap, so they must fit inside
					// the wall time they partition.
					if top > tr.Wall() {
						t.Fatalf("%s: %q depth-0 spans sum to %v, more than the %v wall: %+v",
							name, stmt, top, tr.Wall(), spans)
					}
				}
			}
		})
	}
}
