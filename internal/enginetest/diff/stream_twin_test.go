package diff

import (
	"context"
	"testing"

	"gdbm/internal/engine"
	"gdbm/internal/gen"

	_ "gdbm/internal/engines/sonesdb"
)

// streamTwinEngines are the four language-fronted engines — one per query
// surface the server exposes (gql, gsql on disk, gsql in memory, sparqlish).
var streamTwinEngines = []string{"neograph", "gstore", "sonesdb", "triplestore"}

// TestStreamedBufferedTwins holds the two deliveries an engine's one
// QueryStream can take to the same answer. Every buffered entry point is a
// plan.Collector at the end of QueryStream, so what remains to prove is that
// the incremental emission (plan.Stream, on an instance without a result
// cache) and the materialized one (execute whole, publish to the result
// cache, plan.Replay — and on the second pass a cache hit replayed) render
// byte-identically over the same seeded load: streaming is a delivery
// change, never a result change. sonesdb is main-memory only and has no
// result cache; its pair degenerates to two streamed instances.
func TestStreamedBufferedTwins(t *testing.T) {
	for _, name := range streamTwinEngines {
		t.Run(name, func(t *testing.T) {
			open := func(cacheBytes int64) engine.Engine {
				if name != "sonesdb" {
					return openTwin(t, name, cacheBytes)
				}
				e, err := engine.Open(name, engine.Options{CacheBytes: cacheBytes})
				if err != nil {
					t.Fatalf("open %s: %v", name, err)
				}
				t.Cleanup(func() { e.Close() })
				return e
			}
			streamed, cached := open(0), open(twinCacheBytes)
			spec := gen.Spec{Kind: gen.RMAT, Nodes: 300, EdgesPerNode: 2, Seed: 7}
			ids, err := gen.Generate(spec, streamed.(engine.Loader))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := gen.Generate(spec, cached.(engine.Loader)); err != nil {
				t.Fatal(err)
			}

			qs, qc := streamed.(engine.Querier), cached.(engine.Querier)
			stmts := twinStatements(qs.LanguageName(), ids)
			if len(stmts) == 0 {
				t.Fatalf("no twin statements for language %q", qs.LanguageName())
			}
			totalRows := 0
			for _, stmt := range stmts {
				for pass := 0; pass < 2; pass++ {
					sres, serr := engine.QueryContext(context.Background(), qs, stmt)
					rs := renderResult(sres, serr)
					rc := renderResult(engine.QueryContext(context.Background(), qc, stmt))
					if rs != rc {
						t.Fatalf("%s pass %d: %q diverged\n  streamed: %s\n  cached:   %s",
							name, pass, stmt, rs, rc)
					}
					if serr == nil {
						totalRows += len(sres.Rows)
					}
				}
			}
			// Vacuity guards: the workload must actually have streamed rows,
			// and the cached side must actually have replayed cache hits.
			if totalRows == 0 {
				t.Fatalf("%s: no rows streamed across %d statements", name, len(stmts))
			}
			if cs, ok := cached.(engine.CacheStatser); ok {
				if s := cs.CacheStats()["results"]; s.Hits == 0 {
					t.Fatalf("%s: cached twin never hit its result cache: %+v", name, s)
				}
			}
		})
	}
}
