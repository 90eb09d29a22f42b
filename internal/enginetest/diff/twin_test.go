package diff

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"gdbm/internal/engine"
	"gdbm/internal/model"
	"gdbm/internal/query/plan"

	_ "gdbm/internal/engines/bitmapdb"
	_ "gdbm/internal/engines/filamentdb"
	_ "gdbm/internal/engines/gstore"
	_ "gdbm/internal/engines/neograph"
	_ "gdbm/internal/engines/triplestore"
	_ "gdbm/internal/engines/vertexkv"
)

// twinEngines are the disk-backed engines whose cached and uncached
// configurations are proven observationally identical. They cover three
// distinct storage surfaces: propcore over kvgraph (neograph, bitmapdb,
// triplestore), direct kvgraph embedding (vertexkv, filamentdb) and a
// language-fronted store (gstore).
var twinEngines = []string{"neograph", "vertexkv", "gstore", "filamentdb", "bitmapdb", "triplestore"}

const twinCacheBytes = 1 << 20

func openTwin(t *testing.T, name string, cacheBytes int64) engine.Engine {
	t.Helper()
	e, err := engine.Open(name, engine.Options{Dir: t.TempDir(), CacheBytes: cacheBytes})
	if err != nil {
		t.Fatalf("open %s: %v", name, err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// TestCachedUncachedTwins replays one seeded mutate/query workload against
// a cached and an uncached instance of the same engine and requires
// byte-identical renderings of every answer. This is the invalidation
// proof: any stale cache entry surfaces as a divergence at the first query
// after the mutation that should have invalidated it. On the engines with
// a query language the statement cache is proven the same way: after every
// workload op, read statements over the labels the workload writes run
// through engine.QueryStream on both twins.
func TestCachedUncachedTwins(t *testing.T) {
	for i, name := range twinEngines {
		t.Run(name, func(t *testing.T) {
			seed := SeedOrDefault(0xD1FF + int64(i))
			ops := Generate(seed, 400)
			cached := openTwin(t, name, twinCacheBytes)
			uncached := openTwin(t, name, 0)
			var after func(int)
			st := newStmtTwin(t, seed, cached, uncached)
			if st != nil {
				after = func(i int) { st.check(fmt.Sprintf("op %d", i)) }
			}
			pairThen(t, seed, ops, NewInstance(t, cached), NewInstance(t, uncached), true, AllClasses(), after)

			// The proof is vacuous for a tier the cached side never hit:
			// require hits on each tier it reports, and a statement tier on
			// every engine with a query language.
			cs, ok := cached.(engine.CacheStatser)
			if !ok {
				t.Fatalf("%s: cached instance exposes no CacheStats", name)
			}
			tiers := cs.CacheStats()
			if _, ok := tiers["results"]; st != nil && !ok {
				t.Fatalf("%s: cached twin has a query language but no results tier", name)
			}
			for tier, s := range tiers {
				t.Logf("%s %s: hits=%d misses=%d evictions=%d used=%d/%d",
					name, tier, s.Hits, s.Misses, s.Evictions, s.UsedBytes, s.BudgetBytes)
				if s.Hits == 0 {
					t.Errorf("%s: cached twin recorded zero %s hits over %d ops", name, tier, len(ops))
				}
			}
			// The statements must read what the workload writes, or a stale
			// entry could never show.
			if st != nil && st.changed == 0 {
				t.Fatalf("%s: no statement's answer changed across %d ops", name, len(ops))
			}
		})
	}
}

// twinReads are read statements per query language over the labels the
// seeded workload writes: nodes labelled person, place and thing with an
// int property rank, edges labelled knows, near and owns. Each orders or
// aggregates its output so renderings are stable. sparqlish projects a
// term's lexical value, which workload nodes lack, so its rows render as
// nulls and the answer is their number.
func twinReads(lang string) []string {
	switch lang {
	case "gql":
		return []string{
			`MATCH (a:person) RETURN count(*) AS n, sum(a.rank) AS s`,
			`MATCH (a:place)-[:knows]->(b) RETURN a.rank AS r, b.rank AS q ORDER BY r, q`,
			`MATCH (a)-[:owns]->(b:thing) RETURN count(*) AS n`,
		}
	case "gsql":
		return []string{
			`SELECT rank FROM person ORDER BY rank`,
			`SELECT count(*) AS n, sum(rank) AS s FROM place`,
			`SELECT SIZE`,
		}
	case "sparqlish":
		return []string{
			`SELECT ?s ?o WHERE { ?s <knows> ?o . }`,
			`SELECT ?s WHERE { ?s <near> ?o . ?o <owns> ?x . }`,
		}
	}
	return nil
}

// renderStream runs stmt through engine.QueryStream and renders what the
// sink received, or the error.
func renderStream(q engine.Querier, stmt string) string {
	var c plan.Collector
	if err := engine.QueryStream(context.Background(), q, stmt, &c); err != nil {
		return renderResult(nil, err)
	}
	return renderResult(&c.Res, nil)
}

// stmtTwin compares the twinReads statements on a cached and an uncached
// instance of one Querier engine. changed counts runs whose answer differed
// from the statement's previous run: the guard that the statements read
// what the workload mutates.
type stmtTwin struct {
	t                *testing.T
	seed             int64
	cached, uncached engine.Querier
	stmts            []string
	last             map[string]string
	changed          int
}

// newStmtTwin returns nil when the engine has no query language.
func newStmtTwin(t *testing.T, seed int64, cached, uncached engine.Engine) *stmtTwin {
	qc, ok := cached.(engine.Querier)
	if !ok {
		return nil
	}
	stmts := twinReads(qc.LanguageName())
	if len(stmts) == 0 {
		t.Fatalf("no twin statements for language %q", qc.LanguageName())
	}
	return &stmtTwin{t: t, seed: seed, cached: qc, uncached: uncached.(engine.Querier),
		stmts: stmts, last: map[string]string{}}
}

// check runs every statement once on each twin and fails on the first
// divergence; at names the point in the workload for the failure message.
func (s *stmtTwin) check(at string) {
	s.t.Helper()
	for _, stmt := range s.stmts {
		rc, ru := renderStream(s.cached, stmt), renderStream(s.uncached, stmt)
		if rc != ru {
			s.t.Fatalf("seed %d: %s: %q diverged\n  cached:   %s\n  uncached: %s\n(replay with -seed=%d)",
				s.seed, at, stmt, rc, ru, s.seed)
		}
		if prev, ok := s.last[stmt]; ok && prev != rc {
			s.changed++
		}
		s.last[stmt] = rc
	}
}

// symMut is a symbolic mutation for the concurrent twin test: it references
// nodes by workload index and phase-added edges by add order, so the same
// list replays against either instance using that instance's own ids.
type symMut struct {
	kind  OpKind
	a, b  int // workload node indexes
	eStep int // index into this phase's added edges (OpRemoveEdge)
	val   int64
}

func applySym(t *testing.T, in *Instance, muts []symMut) {
	t.Helper()
	var added []model.EdgeID
	for i, m := range muts {
		switch m.kind {
		case OpAddEdge:
			id, err := in.mg.AddEdge("knows", in.nodes[m.a], in.nodes[m.b], nil)
			if err != nil {
				t.Fatalf("%s mut %d: AddEdge: %v", in.Name, i, err)
			}
			added = append(added, id)
		case OpRemoveEdge:
			if err := in.mg.RemoveEdge(added[m.eStep]); err != nil {
				t.Fatalf("%s mut %d: RemoveEdge: %v", in.Name, i, err)
			}
		case OpSetNodeProp:
			if err := in.mg.SetNodeProp(in.nodes[m.a], "rank", model.Int(m.val)); err != nil {
				t.Fatalf("%s mut %d: SetNodeProp: %v", in.Name, i, err)
			}
		}
	}
}

// TestCachedTwinConcurrentReaders hammers a cached engine with concurrent
// essential queries — and, on the engines with a query language, read
// statements through the statement cache — while a writer mutates the
// graph, then replays the same mutations on an uncached twin and requires
// the final query sweeps to agree. Run under -race this also proves the
// epoch/cache machinery is data-race free against the engines' own
// locking.
func TestCachedTwinConcurrentReaders(t *testing.T) {
	for i, name := range []string{"neograph", "vertexkv", "gstore"} {
		t.Run(name, func(t *testing.T) {
			seed := SeedOrDefault(0xCAFE + int64(i))
			ops := Generate(seed, 150)
			cachedEng, uncachedEng := openTwin(t, name, twinCacheBytes), openTwin(t, name, 0)
			cached, uncached := NewInstance(t, cachedEng), NewInstance(t, uncachedEng)
			st := newStmtTwin(t, seed, cachedEng, uncachedEng)

			// Build identical bases: mutations only, queries dropped. Node
			// removals are skipped so every workload index stays valid for
			// the concurrent readers below.
			for _, op := range ops {
				if op.Kind >= OpQueryAdjacency || op.Kind == OpRemoveNode {
					continue
				}
				cached.Apply(op, true)
			}
			snapshot := append([]model.NodeID(nil), cached.nodes...)
			if len(snapshot) < 2 {
				t.Fatalf("seed %d: base workload produced %d nodes", seed, len(snapshot))
			}

			// Deterministic mutation script for the concurrent phase.
			var muts []symMut
			for j := 0; j < 60; j++ {
				switch j % 3 {
				case 0:
					muts = append(muts, symMut{kind: OpAddEdge, a: j % len(snapshot), b: (j * 7) % len(snapshot)})
				case 1:
					muts = append(muts, symMut{kind: OpSetNodeProp, a: (j * 3) % len(snapshot), val: int64(j)})
				case 2:
					// j=3k adds edge #k and j=3k+2 removes it, so each edge is
					// removed exactly once.
					muts = append(muts, symMut{kind: OpRemoveEdge, eStep: len(muts) / 3})
				}
			}

			var wg sync.WaitGroup
			stop := make(chan struct{})
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					es := cached.es
					for j := 0; ; j++ {
						select {
						case <-stop:
							return
						default:
						}
						a := snapshot[(r+j)%len(snapshot)]
						b := snapshot[(r*13+j*5)%len(snapshot)]
						// Results are discarded: correctness of concurrent
						// reads is the final sweep's job; this loop exists to
						// race page and statement-cache Get/Put/eviction
						// against the writer's epoch bumps. Not every
						// archetype exposes every class (vertexkv has no
						// shortest path or language), hence the guards.
						if st != nil {
							stmt := st.stmts[(r+j)%len(st.stmts)]
							engine.QueryStream(context.Background(), st.cached, stmt, &plan.Collector{})
						}
						if es.NodeAdjacency != nil {
							es.NodeAdjacency(a, b)
						}
						if es.KNeighborhood != nil {
							es.KNeighborhood(a, 1+j%3)
						}
						if es.ShortestPath != nil {
							es.ShortestPath(a, b)
						}
						if es.Summarization != nil {
							es.Summarization(0, "person", "rank")
						}
					}
				}(r)
			}
			applySym(t, cached, muts)
			close(stop)
			wg.Wait()

			// Bring the uncached twin to the same final state and compare
			// full query sweeps over every node pair.
			for _, op := range ops {
				if op.Kind >= OpQueryAdjacency || op.Kind == OpRemoveNode {
					continue
				}
				uncached.Apply(op, true)
			}
			applySym(t, uncached, muts)
			n := len(snapshot)
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					for _, q := range []Op{
						{Kind: OpQueryAdjacency, A: a, B: b},
						{Kind: OpQueryKNeighborhood, A: a, K: 2},
						{Kind: OpQueryShortest, A: a, B: b},
					} {
						if !cached.supportsQuery(q) {
							continue
						}
						ra, rb := cached.Apply(q, true), uncached.Apply(q, true)
						if ra != rb {
							t.Fatalf("seed %d: final sweep diverged at (%d,%d) %+v\n  cached:   %s\n  uncached: %s\n(replay with -seed=%d)",
								seed, a, b, q, ra, rb, seed)
						}
					}
				}
			}
			for _, label := range nodeLabels {
				q := Op{Kind: OpQuerySummarize, Label: label, Prop: "rank"}
				if !cached.supportsQuery(q) {
					continue
				}
				if ra, rb := cached.Apply(q, true), uncached.Apply(q, true); ra != rb {
					t.Fatalf("seed %d: summarize(%s) diverged: %s vs %s", seed, label, ra, rb)
				}
			}
			if st != nil {
				// Twice: the second sweep is served from the cached twin's
				// statement cache.
				st.check("final sweep")
				st.check("final sweep, repeated")
				if s := cachedEng.(engine.CacheStatser).CacheStats()["results"]; s.Hits == 0 {
					t.Fatalf("%s: statement cache recorded no hits: %+v", name, s)
				}
			}
		})
	}
}

// TestCachedTwinMatchWrites pins the epoch guard on the one path where a
// write reaches the statement cache. engine.ReadOnlyStmt reads only the
// first keyword, so neograph routes MATCH … SET and MATCH … DELETE through
// CachedQuery's buffered path, and only the epoch check keeps a write from
// being answered out of the cache. Each write runs twice on both twins,
// between read statements: a write that changes the graph bumps the epoch
// and is never published, and one that matches nothing changes no epoch,
// so its second run is a cache hit that must still give the same answer.
func TestCachedTwinMatchWrites(t *testing.T) {
	seed := SeedOrDefault(0x5E7)
	cachedEng, uncachedEng := openTwin(t, "neograph", twinCacheBytes), openTwin(t, "neograph", 0)
	cached, uncached := NewInstance(t, cachedEng), NewInstance(t, uncachedEng)
	for _, op := range Generate(seed, 150) {
		if op.Kind >= OpQueryAdjacency {
			continue
		}
		if ra, rb := cached.Apply(op, true), uncached.Apply(op, true); ra != rb {
			t.Fatalf("seed %d: base op %+v diverged: %s vs %s", seed, op, ra, rb)
		}
	}
	st := newStmtTwin(t, seed, cachedEng, uncachedEng)
	writes := []string{
		`MATCH (a:place) SET a.rank = a.rank + 1`,
		`MATCH (a:thing) WHERE a.rank > 50 SET a.rank = 7`,
		`MATCH (a:place)-[r:owns]->(b) DELETE r`,
		`MATCH (a:person)-[r:owns]->(b:thing) DELETE r`,
		`MATCH (a:nobody) DELETE a`,
	}
	st.check("base")
	for _, w := range writes {
		for pass := 0; pass < 2; pass++ {
			rc, ru := renderStream(st.cached, w), renderStream(st.uncached, w)
			if rc != ru {
				t.Fatalf("seed %d: %q pass %d diverged\n  cached:   %s\n  uncached: %s", seed, w, pass, rc, ru)
			}
			st.check(fmt.Sprintf("after %q pass %d", w, pass))
		}
	}
	if got, want := crashDump(t, cachedEng), crashDump(t, uncachedEng); got != want {
		t.Fatalf("seed %d: final graphs diverge\ncached:\n%s\nuncached:\n%s", seed, got, want)
	}
	// Vacuity guards: the writes changed what the reads see, and the
	// cached twin answered from its statement cache.
	if st.changed == 0 {
		t.Fatal("no read statement's answer changed across the writes")
	}
	if s := cachedEng.(engine.CacheStatser).CacheStats()["results"]; s.Hits == 0 {
		t.Fatalf("statement cache recorded no hits: %+v", s)
	}
}
