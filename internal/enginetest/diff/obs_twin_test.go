package diff

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"gdbm/internal/engine"
	"gdbm/internal/engine/capability"
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

// querierEngines are the four engines with a query language. sonesdb is
// main-memory only, so it runs without a data directory or result cache.
var querierEngines = []string{"neograph", "gstore", "sonesdb", "triplestore"}

// openQuerier opens name the way openTwin does where its profile allows a
// data directory, and in memory otherwise.
func openQuerier(t *testing.T, name string) engine.Engine {
	t.Helper()
	if capability.AllowsDir(name) {
		return openTwin(t, name, twinCacheBytes)
	}
	e, err := engine.Open(name, engine.Options{})
	if err != nil {
		t.Fatalf("open %s: %v", name, err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// resultHits is the engine's result-cache hit count; zero without a
// result tier.
func resultHits(e engine.Engine) uint64 {
	if cs, ok := e.(engine.CacheStatser); ok {
		return cs.CacheStats()["results"].Hits
	}
	return 0
}

// wantSpans is the exact span shape of one traced query, as name@depth in
// the order the spans close. A result-cache hit is the engine's "query"
// span alone. A miss nests the language's spans inside it: gql and
// sparqlish close "parse" then "exec"; gsql parses while it executes and
// records "exec" only.
func wantSpans(lang string, hit bool) []string {
	switch {
	case hit:
		return []string{"query@0"}
	case lang == "gsql":
		return []string{"exec@1", "query@0"}
	}
	return []string{"parse@1", "exec@1", "query@0"}
}

// TestTracedUntracedQueryTwins runs identical statements through each
// Querier twin pair — one dispatch carrying a live trace, the other none —
// and requires byte-identical renderings. This is the span half of the
// cardinal rule: the spans a trace records must be pure observation. It
// also holds the span accounting: every traced query records exactly the
// spans wantSpans names, so an end function that is discarded or never
// called at any StartSpan site fails here, and the depth-0 spans fit
// within the wall time.
func TestTracedUntracedQueryTwins(t *testing.T) {
	for _, name := range querierEngines {
		t.Run(name, func(t *testing.T) {
			traced := openQuerier(t, name)
			untraced := openQuerier(t, name)
			qt := traced.(engine.Querier)
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
			hits, misses := 0, 0
			for _, stmt := range stmts {
				// Run each statement twice per side so the second traced run
				// exercises the result-cache hit path under tracing too.
				for pass := 0; pass < 2; pass++ {
					tr := obs.New(stmt)
					ctx := obs.WithTrace(context.Background(), tr)
					before := resultHits(traced)
					ra := renderResult(engine.QueryContext(ctx, qt, stmt))
					hit := resultHits(traced) > before
					tr.Finish()
					rb := renderResult(engine.QueryContext(context.Background(), qu, stmt))
					if ra != rb {
						t.Fatalf("%s pass %d: %q diverged under tracing\n  traced:   %s\n  untraced: %s",
							name, pass, stmt, ra, rb)
					}
					if hit {
						hits++
					} else {
						misses++
					}
					spans := tr.Spans()
					var got []string
					var top time.Duration
					for _, s := range spans {
						got = append(got, fmt.Sprintf("%s@%d", s.Name, s.Depth))
						if s.Depth == 0 {
							top += s.Dur
						}
					}
					if want := wantSpans(qt.LanguageName(), hit); !slices.Equal(got, want) {
						t.Fatalf("%s pass %d: %q (hit=%v) recorded spans %v, want %v",
							name, pass, stmt, hit, got, want)
					}
					// Depth-0 spans never overlap, so they must fit inside
					// the wall time they partition.
					if top > tr.Wall() {
						t.Fatalf("%s: %q depth-0 spans sum to %v, more than the %v wall: %+v",
							name, stmt, top, tr.Wall(), spans)
					}
				}
			}
			// Vacuity guard: both shapes were checked wherever both occur.
			if misses == 0 || (capability.AllowsDir(name) && hits == 0) {
				t.Fatalf("%s: %d result-cache hits and %d misses; the span shapes went unchecked", name, hits, misses)
			}
		})
	}
}
