// Package engine defines the common surface of the nine archetype engines
// and the capability vocabulary the table-regeneration harness probes. Each
// engine reproduces, at the logical level, the feature profile the survey
// attributes to one of the nine systems it compares.
package engine

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"gdbm/internal/algo"
	"gdbm/internal/model"
	"gdbm/internal/obs"
	"gdbm/internal/query/plan"
	"gdbm/internal/storage/vfs"
)

// Support is a table cell: the survey's blank, ◦ and •.
type Support uint8

const (
	No Support = iota
	Partial
	Yes
)

// Mark renders the cell the way the paper prints it.
func (s Support) Mark() string {
	switch s {
	case Yes:
		return "•"
	case Partial:
		return "◦"
	default:
		return ""
	}
}

// Features enumerates every column of Tables I–VII. Engines declare their
// profile; the probe framework verifies each claim by exercising the engine
// and reports attested values.
type Features struct {
	// Table I — data storing.
	MainMemory, ExternalMemory, BackendStorage, Indexes Support
	// Table II — operation and manipulation. QueryLanguageShipped is the
	// Table II presence column (does the system ship a query language);
	// QueryLanguage is the Table V quality column, where a shipped but
	// structure-blind language (SPARQL over RDF) or an in-development one
	// (Cypher) is Partial.
	DDL, DML, QueryLanguageShipped, QueryLanguage, API, GUI Support
	// Table III — graph data structures.
	SimpleGraphs, Hypergraphs, NestedGraphs, AttributedGraphs Support
	NodeLabeled, NodeAttributed                               Support
	Directed, EdgeLabeled, EdgeAttributed                     Support
	// Table IV — entities and relations.
	SchemaNodeTypes, SchemaPropertyTypes, SchemaRelationTypes Support
	ObjectNodes, ValueNodes, ComplexNodes                     Support
	ObjectRelations, SimpleRelations, ComplexRelations        Support
	// Table V — query facilities. APIQueryFacility is Table V's API
	// column: whether the API is the system's query facility (G-Store and
	// Sones query through their language instead, so the paper leaves
	// their cells blank despite Table II's API mark).
	APIQueryFacility, GraphicalQL, Retrieval, Reasoning, Analysis Support
	// Table VI — integrity constraints.
	TypesChecking, NodeEdgeIdentity, ReferentialIntegrity           Support
	CardinalityChecking, FunctionalDependencies, PatternConstraints Support
}

// Essentials holds the engine's public, composable answers to the essential
// graph queries of Table VII. A nil field means the archetype's surface
// cannot answer that query class; the probe executes every non-nil field
// and only then marks support.
type Essentials struct {
	NodeAdjacency func(a, b model.NodeID) (bool, error)
	EdgeAdjacency func(e1, e2 model.EdgeID) (bool, error)
	// KNeighborhood lists the nodes within k hops of n in either
	// direction, n excluded, by depth, then in the store's Neighbors order.
	KNeighborhood    func(n model.NodeID, k int) ([]model.NodeID, error)
	FixedLengthPaths func(from, to model.NodeID, length int) ([]algo.Path, error)
	ShortestPath     func(from, to model.NodeID) (algo.Path, error)
	Summarization    func(kind algo.AggKind, label, prop string) (model.Value, error)
}

// TraversalEssentials is the one constructor of the engines' Table VII
// rows: adjacency, fixed-length and shortest paths over the live graph,
// and k-neighborhood and summarization over a snapshot that pin acquires,
// or over the live graph when pin is nil. The kernels run under ctx. An
// engine sets to nil the classes its row lacks, and replaces a closure its
// archetype answers its own way.
func TraversalEssentials(ctx context.Context, live model.Graph,
	pin func() (model.Graph, model.ReleaseFunc, error)) Essentials {
	if pin == nil {
		pin = func() (model.Graph, model.ReleaseFunc, error) { return live, func() {}, nil }
	}
	return Essentials{
		NodeAdjacency: func(a, b model.NodeID) (bool, error) {
			return algo.Adjacent(live, a, b, model.Both)
		},
		EdgeAdjacency: func(e1, e2 model.EdgeID) (bool, error) {
			return algo.EdgesAdjacent(live, e1, e2)
		},
		KNeighborhood: func(n model.NodeID, k int) ([]model.NodeID, error) {
			g, release, err := pin()
			if err != nil {
				return nil, err
			}
			defer release()
			return algo.NeighborhoodCtx(ctx, g, n, k, model.Both)
		},
		FixedLengthPaths: func(from, to model.NodeID, length int) ([]algo.Path, error) {
			return algo.FixedLengthPathsCtx(ctx, live, from, to, length, model.Out, 0)
		},
		ShortestPath: func(from, to model.NodeID) (algo.Path, error) {
			return algo.ShortestPathCtx(ctx, live, from, to, model.Out)
		},
		Summarization: func(kind algo.AggKind, label, prop string) (model.Value, error) {
			g, release, err := pin()
			if err != nil {
				return model.Null(), err
			}
			defer release()
			return algo.AggregateNodePropCtx(ctx, g, label, prop, kind)
		},
	}
}

// Engine is a database instance under one archetype.
type Engine interface {
	// Name is the engine's own name (e.g. "neograph").
	Name() string
	// SurveyRow is the row of the paper's tables this engine reproduces
	// (e.g. "Neo4j").
	SurveyRow() string
	// Features declares the archetype profile.
	Features() Features
	// Essentials exposes the essential-query surface. The closures run
	// under ctx: every kernel with a cancellable form observes its
	// deadline and cancellation, so a caller holding a request context
	// passes it here rather than severing it at the dispatch site.
	Essentials(ctx context.Context) Essentials
	// Close releases resources.
	Close() error
}

// Loader is the common ingest surface the harness uses to seed every engine
// with the same property-graph dataset, whatever the engine's native model.
type Loader interface {
	LoadNode(label string, props model.Properties) (model.NodeID, error)
	LoadEdge(label string, from, to model.NodeID, props model.Properties) (model.EdgeID, error)
}

// GraphAPI is implemented by engines whose public API exposes a binary
// property graph (queried by the planner and the shell).
type GraphAPI interface {
	model.MutableGraph
	plan.Source
}

// HyperAPI is implemented by hypergraph engines.
type HyperAPI interface {
	model.MutableHypergraph
}

// Querier is implemented by engines with a database query language.
// Streaming is the interface: QueryStream is the engine's one execution
// path, and a buffered result is a plan.Collector at the end of it (the
// QueryContext helper), never a second dispatch.
type Querier interface {
	// LanguageName names the language ("gql", "sparqlish", "gsql").
	LanguageName() string
	// QueryStream parses and runs one statement under ctx, delivering
	// columns and then each row into sink as execution produces them, so
	// a serving layer can flush chunks before the result is whole. ctx
	// (and any obs.Trace it carries) is threaded through parse, planning
	// and execution; the whole dispatch is a "query" span. A sink error
	// stops execution and is returned unchanged (errors.Is comparisons
	// still work), so cancelling the consumer cancels the query.
	QueryStream(ctx context.Context, stmt string, sink plan.Sink) error
}

// SchemaHolder is implemented by engines with a data definition surface.
type SchemaHolder interface {
	Schema() *model.Schema
}

// Reasoner is implemented by engines with rule inference (Table V).
type Reasoner interface {
	// Materialize runs the engine's rule set to fixpoint and returns the
	// number of newly derived facts.
	Materialize() (int, error)
}

// Transactional is implemented by engines with transaction support.
type Transactional interface {
	// Update runs fn atomically: all mutations apply or none do.
	Update(fn func() error) error
}

// Persistent is implemented by engines whose data survives reopening.
type Persistent interface {
	// Flush forces buffered state to stable storage.
	Flush() error
}

// Concurrent is implemented by engines the survey profiles as concurrent-
// capable servers (systems shipped with a transaction/concurrency story,
// Section II): their read path may be shared by many goroutines at once.
// Their Essentials closures pin a snapshot for k-neighborhood and
// summarization and run the sequential Ctx kernels over it; the other
// classes read the live graph (TraversalEssentials).
//
// AcquireSnapshot returns a Graph that is safe for unsynchronized use by
// any number of concurrent readers until released, at frozen isolation: the
// view is an immutable point-in-time state, unaffected by later mutations,
// taken between two whole mutations. Each store is its own snapshot:
// memgraph freezes its copy-on-write record blocks in O(1), copying
// nothing, and the next write clones only the block it touches; kvgraph
// freezes the memgraph mirror of its records that its writes keep
// current, built by the first pin. Writers never block pinned readers,
// so a kernel sees one consistent state however long it runs. An engine
// whose store cannot pin returns an error, never the live graph.
//
// The returned release follows the model.ReleaseFunc contract: call it
// exactly once when done. Engines delegate to their store's model.Pinner,
// whose comment records why that is a different method name.
type Concurrent interface {
	AcquireSnapshot() (model.Graph, model.ReleaseFunc, error)
}

// Options configures engine construction.
type Options struct {
	// Dir is the data directory for disk-backed engines; empty selects a
	// pure in-memory configuration where the archetype allows it.
	Dir string
	// PoolPages bounds the buffer pool of page-file backed engines.
	PoolPages int
	// FS is the filesystem disk-backed engines open their files on. Nil
	// means the real filesystem; the crash-recovery harness passes a
	// vfs.FaultFS to test durability under injected failures.
	FS vfs.FS
	// CacheBytes is the engine's total cache budget in bytes. Zero disables
	// caching entirely (beyond the pager's fixed PoolPages buffer pool);
	// when positive, disk-backed engines split it between the page cache
	// and, on engines with a query language, the statement-result cache
	// (see Disk and SplitCacheBudget). Cached and uncached configurations
	// must be observationally identical — the differential harness in
	// internal/enginetest/diff enforces this.
	CacheBytes int64
	// Metrics, when non-nil, receives the engine's storage counters
	// (pager.*, kvgraph.*; see internal/obs). Observed and unobserved
	// configurations must be observationally identical.
	Metrics *obs.Registry
}

// SplitCacheBudget divides an engine's CacheBytes between the two cache
// tiers: a quarter to the statement-result cache and the rest to the page
// cache. Engines without a statement cache give the whole budget to pages.
func SplitCacheBudget(total int64) (page, results int64) {
	if total <= 0 {
		return 0, 0
	}
	results = total - total/2 - total/4
	return total - results, results
}

// Factory constructs an engine.
type Factory func(opts Options) (Engine, error)

var (
	regMu    sync.RWMutex
	registry = map[string]Factory{}
	rows     = map[string]string{} // engine name -> survey row
)

// Register adds an engine constructor under its name. It panics on
// duplicates, which indicates a programming error at init time.
func Register(name, surveyRow string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, ok := registry[name]; ok {
		panic(fmt.Sprintf("engine: duplicate registration %q", name))
	}
	registry[name] = f
	rows[name] = surveyRow
}

// Open constructs the named engine.
func Open(name string, opts Options) (Engine, error) {
	regMu.RLock()
	f, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("engine %q: %w", name, model.ErrNotFound)
	}
	return f(opts)
}

// Names lists registered engines sorted by the survey row they reproduce,
// matching the row order of the paper's tables.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return rows[out[i]] < rows[out[j]] })
	return out
}
